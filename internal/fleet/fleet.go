// Package fleet is the name the repository's benchmark module compiles
// against for the sharded service. The service itself is server.Server,
// which runs one shard or many; this package only re-exports it under the
// names bench/fleet.go uses, with the two-valued Result it expects.
package fleet

import (
	"waterwise/internal/cluster"
	"waterwise/internal/server"
)

type (
	// Config is server.Config.
	Config = server.Config
	// Decision is server.MergedDecision.
	Decision = server.MergedDecision
	// Status is server.Status.
	Status = server.Status
	// SupervisorConfig is server.SupervisorConfig.
	SupervisorConfig = server.SupervisorConfig
)

// Fleet is a server.Server whose Result also returns an error.
type Fleet struct{ *server.Server }

// New is server.New.
func New(cfg Config) (*Fleet, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Fleet{s}, nil
}

// Result is server.Server.Result with a nil error.
func (f *Fleet) Result() (*cluster.Result, error) { return f.Server.Result(), nil }
