package exp

import (
	"context"
	"fmt"
	"time"

	"presto/internal/core"
	"presto/internal/query"
	"presto/internal/scenario"
)

// E16Scenarios exercises the scenario subsystem end to end: every named
// preset is generated from its seed (deployment, heterogeneous traces
// with regional events, and the tenant query-arrival schedule), the
// smoke scenario's arrivals are replayed against an in-process build of
// its own deployment, and the smoke deployment is re-run as a cluster
// under its churn schedule (kill, re-join, migrate) to confirm the
// disturbed cluster's answer is bit-identical to the untouched
// in-process reference. Every cell is derived from the seeds alone —
// the table is byte-identical across runs.
func E16Scenarios(_ Scale) (*Table, error) {
	ctx := context.Background()
	t := &Table{
		Title: "E16: Named scenarios — seeded deployments, workload schedules, churn replay",
		Headers: []string{"scenario", "motes", "sites", "domains", "days",
			"arrivals", "loose", "events", "deploy-digest", "workload-digest"},
	}

	var smoke *scenario.Scenario
	for _, name := range scenario.PresetNames() {
		spec, err := scenario.Preset(name)
		if err != nil {
			return nil, err
		}
		sc, err := scenario.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("exp: generating %s: %w", name, err)
		}
		if name == "smoke" {
			smoke = sc
		}
		_, events, loose := sc.Totals()
		t.AddRow(name,
			fmt.Sprintf("%d", spec.Deployment.Motes()),
			fmt.Sprintf("%d", spec.Deployment.Sites),
			fmt.Sprintf("%d", spec.Deployment.Shards),
			fmt.Sprintf("%d", spec.Deployment.Days),
			fmt.Sprintf("%d", len(sc.Arrivals)),
			fmt.Sprintf("%d", loose),
			fmt.Sprintf("%d", events),
			sc.DeploymentDigest()[:12],
			sc.WorkloadDigest()[:12])
	}
	if smoke == nil {
		return nil, fmt.Errorf("exp: smoke preset missing")
	}

	// Replay the smoke schedule in-process: advance virtual time to each
	// arrival instant and pose its spec, exactly as a serving tier fed by
	// presto-load -scenario would.
	const replayCap = 40
	n, err := core.Build(smoke.Config)
	if err != nil {
		return nil, err
	}
	n.Start()
	ok, refused := 0, 0
	var cursor time.Duration
	for i, a := range smoke.Arrivals {
		if i == replayCap {
			break
		}
		if a.At > cursor {
			n.Run(a.At - cursor)
			cursor = a.At
		}
		spec, err := query.DecodeSpecJSON(a.SpecJSON)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("exp: arrival %d spec: %w", i, err)
		}
		if r, err := n.Client().QueryOne(ctx, spec); err != nil || r.Err != nil {
			refused++
		} else {
			ok++
		}
	}
	n.Close()

	// The smoke deployment under a churn schedule: a site killed, later
	// re-admitted from the automatic checkpoint, and a domain migrated
	// live — then one aggregate compared against an in-process build
	// that was never disturbed.
	churned := smoke.Spec
	churned.Environment.Churn = []scenario.ChurnAction{
		{At: query.Dur(2 * time.Hour), Op: "kill", Site: 1},
		{At: query.Dur(4 * time.Hour), Op: "rejoin", Site: 1},
		{At: query.Dur(5 * time.Hour), Op: "migrate", Domain: 3, To: 0},
	}
	chaosSc, err := scenario.Generate(churned)
	if err != nil {
		return nil, err
	}
	chaos, err := chaosSc.StartCluster(ctx)
	if err != nil {
		return nil, err
	}
	defer chaos.Close()
	if err := chaos.RunChurn(ctx, 6*time.Hour, nil); err != nil {
		return nil, err
	}
	one := query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: 2 * time.Hour}
	res, err := chaos.Co.Client().QueryOne(ctx, one)
	if err != nil {
		return nil, err
	}
	refNet, err := core.Build(smoke.Config)
	if err != nil {
		return nil, err
	}
	refNet.Start()
	refNet.Run(6 * time.Hour)
	ref, err := refNet.Client().QueryOne(ctx, one)
	refNet.Close()
	if err != nil {
		return nil, err
	}
	if res.Value != ref.Value || res.ErrBound != ref.ErrBound || res.Count != ref.Count {
		return nil, fmt.Errorf("exp: churned cluster AGG %v±%v (n=%d) diverged from in-process %v±%v (n=%d)",
			res.Value, res.ErrBound, res.Count, ref.Value, ref.ErrBound, ref.Count)
	}
	h := chaos.Co.Health()

	t.Note = fmt.Sprintf("Replay: first %d smoke arrivals posed in-process at their scheduled instants "+
		"(%d answered, %d refused). Churn: smoke cluster under kill/rejoin/migrate "+
		"(%d rejoin, %d migration) answered AGG(mean, trailing 2h) bit-identically to the "+
		"undisturbed in-process build. Digests are sha256 prefixes over every trace byte "+
		"and every scheduled arrival.",
		min(replayCap, len(smoke.Arrivals)), ok, refused, h.Rejoins, h.Migrations)
	return t, nil
}
