module waterwise/bench

go 1.24

require waterwise v0.0.0

replace waterwise => ../
