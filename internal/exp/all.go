package exp

// Experiment names one runnable experiment.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Scale) (*Table, error)
}

// All returns every experiment — the paper's table and figure, then the
// derived experiments E3–E16 — plus the ablations, in presto-bench order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Table 1: feature comparison, measured", Table1},
		{"F2", "Figure 2: energy vs batching interval", Figure2},
		{"E3", "Query latency by answer path", E3QueryLatency},
		{"E4", "Collection policy vs energy and error", E4PushEnergy},
		{"E5", "Rare event capture", E5RareEvents},
		{"E6", "Extrapolation masks misses", E6Extrapolation},
		{"E7", "Graceful aging", E7Aging},
		{"E8", "Query-sensor matching", E8QueryMatching},
		{"E9", "Skip-graph index scaling", E9SkipGraph},
		{"E10", "Clock correction", E10TimeSync},
		{"E11", "Replication and consistency", E11Consistency},
		{"E12", "Store backends: archive hit ratio, flash costs", E12StoreBackends},
		{"E13", "Flash archive aging: uniform vs wavelet tiers", E13WaveletAging},
		{"E14", "Scatter-gather set queries vs per-mote loop", E14ScatterGather},
		{"E15", "Multi-process cluster vs one process (loopback transport)", E15Cluster},
		{"E16", "Named scenarios: seeded deployments, workloads, churn replay", E16Scenarios},
		{"A1", "Ablation: model family", AblationModels},
		{"A2", "Ablation: batch codec", AblationCompression},
		{"A3", "Ablation: retraining period", AblationRetrain},
		{"A4", "Ablation: LPL interval", AblationLPL},
		{"A5", "Ablation: spatial extrapolation", AblationSpatial},
	}
}
