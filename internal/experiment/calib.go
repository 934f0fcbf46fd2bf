package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// CalibConfig parameterizes the Δn sweep of Sec. VII-A: how large must the
// network-interrupt offset be before synchrony violations (divergences)
// vanish, and what latency does each choice cost?
type CalibConfig struct {
	Seed uint64
	// DeltaNsMS are the Δn values to sweep, in milliseconds of virtual time.
	DeltaNsMS []float64
	// Duration of each run.
	Duration sim.Time
	// ProbeMeanGap drives the packet stream under test.
	ProbeMeanGap sim.Time
	// WithLoad adds a coresident active guest to stress the I/O path.
	WithLoad bool
}

// DefaultCalibConfig sweeps 2–16 ms.
func DefaultCalibConfig() CalibConfig {
	return CalibConfig{
		Seed:         23,
		DeltaNsMS:    []float64{2, 4, 6, 8, 10, 12, 16},
		Duration:     10 * sim.Second,
		ProbeMeanGap: 15 * sim.Millisecond,
		WithLoad:     true,
	}
}

// CalibPoint is one Δn's outcome.
type CalibPoint struct {
	DeltaNMS float64
	// Divergences across the guest's replicas (synchrony violations).
	Divergences int
	// Deliveries is the number of packets delivered.
	Deliveries int
	// MeanLatencyMS is the mean ingress→guest delivery latency (real ms,
	// measured at replica 0).
	MeanLatencyMS float64
}

// CalibResult is the sweep outcome.
type CalibResult struct {
	Config CalibConfig
	Points []CalibPoint
}

// RunCalib sweeps Δn and reports the divergence/latency tradeoff.
func RunCalib(cfg CalibConfig) (*CalibResult, error) {
	if len(cfg.DeltaNsMS) == 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: calib config %+v", core.ErrCluster, cfg)
	}
	res := &CalibResult{Config: cfg}
	for _, dn := range cfg.DeltaNsMS {
		pt, err := calibOne(cfg, dn)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func calibOne(cfg CalibConfig, deltaNMS float64) (CalibPoint, error) {
	cc := core.DefaultClusterConfig()
	cc.Seed = cfg.Seed
	cc.Hosts = 5
	cc.VMM.DeltaN = vtime.Virtual(deltaNMS * float64(sim.Millisecond))
	c, err := core.New(cc)
	if err != nil {
		return CalibPoint{}, err
	}
	att, err := c.Deploy("probe", []int{0, 1, 2}, func() guest.App { return apps.NewProbeApp() })
	if err != nil {
		return CalibPoint{}, err
	}
	if cfg.WithLoad {
		if _, err := c.Deploy("load", []int{2, 3, 4}, func() guest.App {
			b := apps.NewBeaconApp(vtime.Virtual(6 * sim.Millisecond))
			b.Sink = "load-sink"
			return b
		}); err != nil {
			return CalibPoint{}, err
		}
	}
	// Measure delivery latency: record send times by probe sequence and
	// match against replica-0 injections.
	sentAt := make(map[uint64]sim.Time)
	var latencies []sim.Time
	att.Replica(0).Runtime().OnNetDeliver = func(seq uint64, v vtime.Virtual, real sim.Time) {
		if t0, ok := sentAt[seq]; ok {
			latencies = append(latencies, real-t0)
		}
	}
	c.Start()
	ps := apps.NewProbeSource(c.Net(), c.Loop(), c.Source().Stream("probe"),
		"colluder", core.ServiceAddr("probe"), cfg.ProbeMeanGap)
	// Probes are the only traffic to this guest, so the ingress multicast
	// sequence equals the probe emission sequence.
	ps.OnSend = func(seq uint64, at sim.Time) { sentAt[seq] = at }
	ps.Start(cfg.Duration)
	if err := c.Run(cfg.Duration + 200*sim.Millisecond); err != nil {
		return CalibPoint{}, err
	}
	var meanMS float64
	for _, l := range latencies {
		meanMS += l.Milliseconds()
	}
	if len(latencies) > 0 {
		meanMS /= float64(len(latencies))
	}
	return CalibPoint{
		DeltaNMS:      deltaNMS,
		Divergences:   att.Divergences(),
		Deliveries:    len(latencies),
		MeanLatencyMS: meanMS,
	}, nil
}

// Render prints the calibration table.
func (r *CalibResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec VII-A: Δn calibration (load=%v)\n", r.Config.WithLoad)
	fmt.Fprintf(&b, "%8s %12s %12s %14s\n", "Δn ms", "divergences", "deliveries", "mean lat ms")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.0f %12d %12d %14.2f\n", p.DeltaNMS, p.Divergences, p.Deliveries, p.MeanLatencyMS)
	}
	return b.String()
}
