"""pmaxT benchmark: workloads, layer tracing and the run driver."""
