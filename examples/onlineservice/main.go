// Onlineservice: the WaterWise scheduler as a long-running service.
//
// It starts the online scheduling server in-process (accelerated time — the
// same engine waterwised runs behind its HTTP daemon), submits a stream of
// jobs through the HTTP API, waits for the queue to drain, and reads the
// placement decisions and service status back.
//
//	go run ./examples/onlineservice
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"waterwise"
)

func main() {
	// 1. The environment, exactly as in the offline quickstart.
	env, err := waterwise.NewEnvironment(waterwise.EnvironmentConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The online service: 1-minute scheduling rounds, accelerated time
	//    (rounds run back to back; TimeScale: 1 would pace them against the
	//    wall clock as cmd/waterwised does by default), and the WaterWise
	//    scheduler with its default parameters.
	srv, err := waterwise.NewServer(env, waterwise.ServerConfig{
		Tolerance: 0.5,
		Round:     time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	// 3. Its HTTP API, served in-process.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 4. A morning's worth of job arrivals, POSTed to /v1/jobs.
	jobs, err := env.GenerateBorgTrace(waterwise.TraceConfig{Days: 1, JobsPerDay: 1000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]waterwise.JobSpec, 0, len(jobs))
	for _, j := range jobs {
		id := j.ID
		specs = append(specs, waterwise.JobSpec{
			ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
			DurationSec:    j.Duration.Seconds(),
			EnergyKWh:      float64(j.Energy),
			EstDurationSec: j.EstDuration.Seconds(),
			EstEnergyKWh:   float64(j.EstEnergy),
		})
	}
	payload, _ := json.Marshal(specs)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted %d jobs (HTTP %d)\n", len(specs), resp.StatusCode)

	// 5. Start the round loop and let the accelerated clock chew through
	//    the whole stream.
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}

	// 6. Decisions and status, via the same API a dashboard would poll.
	var status waterwise.ServerStatus
	r2, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&status); err != nil {
		log.Fatal(err)
	}
	r2.Body.Close()
	fmt.Printf("service ran %d rounds, decided %d jobs (sim clock at %v)\n",
		status.Rounds, status.Decisions, status.SimNow.Format(time.RFC3339))
	if status.Solver != nil {
		fmt.Printf("solver: %v solving %d rounds\n", status.Solver.Wall.Round(time.Microsecond), status.Rounds)
	}

	perRegion := map[waterwise.RegionID]int{}
	for _, d := range srv.Decisions(0, 0) {
		perRegion[d.Region]++
	}
	fmt.Println("placements by region:")
	for _, id := range env.Regions() {
		fmt.Printf("  %-8s %d\n", id, perRegion[id])
	}

	res := srv.Result()
	fmt.Printf("footprint: %.1f kg CO2, %.0f L water across %d jobs\n",
		float64(res.TotalCarbon())/1000, float64(res.TotalWater()), len(res.Outcomes))
}
