package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
)

// Fig6Config parameterizes the NFS (nhfsstone) experiment.
type Fig6Config struct {
	Seed uint64
	// Rates are the offered aggregate op rates (paper: 25..400/s).
	Rates []float64
	// Processes is the client process count (paper: 5).
	Processes int
	// LoadDuration is how long ops are issued per point.
	LoadDuration sim.Time
	// DrainDuration lets in-flight ops finish.
	DrainDuration sim.Time
}

// DefaultFig6Config mirrors the paper's sweep.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Seed:          13,
		Rates:         []float64{25, 50, 100, 200, 400},
		Processes:     5,
		LoadDuration:  4 * sim.Second,
		DrainDuration: 2 * sim.Second,
	}
}

// Fig6Point is one offered-rate row.
type Fig6Point struct {
	Rate float64
	// Mean per-op latency (ms).
	LatencyBaseline, LatencyStopWatch float64
	Ratio                             float64
	// Packets per op at the client (StopWatch runs).
	ClientToServerPerOp, ServerToClientPerOp float64
	// Ops completed in the StopWatch run.
	OpsCompleted uint64
}

// Fig6Result is the sweep.
type Fig6Result struct {
	Config Fig6Config
	Points []Fig6Point
}

// RunFig6 sweeps offered rates under both VMMs.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	if len(cfg.Rates) == 0 || cfg.Processes <= 0 || cfg.LoadDuration <= 0 {
		return nil, fmt.Errorf("%w: fig6 config %+v", core.ErrCluster, cfg)
	}
	res := &Fig6Result{Config: cfg}
	for _, rate := range cfg.Rates {
		cc := core.DefaultClusterConfig()
		cc.Seed, cc.Mode = cfg.Seed+uint64(rate*10), core.ModeBaseline
		base, err := RunFig6One(cc, cfg, rate)
		if err != nil {
			return nil, err
		}
		cc.Mode = core.ModeStopWatch
		sw, err := RunFig6One(cc, cfg, rate)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig6Point{
			Rate:                rate,
			LatencyBaseline:     base.MeanMS(),
			LatencyStopWatch:    sw.MeanMS(),
			Ratio:               sw.MeanMS() / base.MeanMS(),
			ClientToServerPerOp: float64(sw.PacketsSent) / float64(sw.Completed),
			ServerToClientPerOp: float64(sw.PacketsReceived) / float64(sw.Completed),
			OpsCompleted:        sw.Completed,
		})
	}
	return res, nil
}

// RunFig6One is one Fig-6 point: cfg.Processes NFS client processes offer
// rate ops/s for cfg.LoadDuration, then drain for cfg.DrainDuration,
// against a fresh cluster built from cc (cfg's Seed and Rates are not
// read), whose NFS server is replicated on hosts 0-2 under StopWatch.
func RunFig6One(cc core.ClusterConfig, cfg Fig6Config, rate float64) (*OneRun, error) {
	// Warm-server disk regime: the paper's NFS server sustained 400 ops/s
	// at ~15 ms latency, which a 4 ms-seek cold disk cannot (too few IOPS);
	// its working set was clearly cached. Mean service ≈ 1.4 ms.
	cc.VMM.DiskSeek = sim.Millisecond
	cc.VMM.DiskJitterMean = 300 * sim.Microsecond
	hosts := onHosts(&cc, []int{0, 1, 2})
	c, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	g, err := c.Deploy("nfs", hosts, func() guest.App { return must(apps.NewNFSServer(16)) })
	if err != nil {
		return nil, err
	}
	cl, err := c.NewClient("nfs-client")
	if err != nil {
		return nil, err
	}
	c.Start()
	gen, err := apps.NewNFSLoadGen(c.Loop(), c.Source().Stream("nfsgen"), cl, core.ServiceAddr("nfs"), apps.PaperMix(), apps.NFSLoadGenConfig{
		Processes:  cfg.Processes,
		RatePerSec: rate,
	})
	if err != nil {
		return nil, err
	}
	gen.Start(cfg.LoadDuration)
	if err := c.Run(cfg.LoadDuration + cfg.DrainDuration); err != nil {
		return nil, err
	}
	lats := gen.Latencies()
	if len(lats) == 0 {
		return nil, fmt.Errorf("%w: no NFS ops completed at rate %v under %v", core.ErrCluster, rate, cc.Mode)
	}
	r := newOneRun(c, g, cl, lats)
	r.Issued, r.Completed = gen.Issued(), gen.Completed()
	return r, nil
}

// Render prints the Fig-6 table.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6(a): NFS mean latency per op (ms); 6(b): packets per op\n")
	fmt.Fprintf(&b, "%8s %10s %10s %7s %10s %10s %8s\n",
		"rate/s", "baseline", "stopwatch", "ratio", "c→s/op", "s→c/op", "ops")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.0f %10.2f %10.2f %7.2f %10.2f %10.2f %8d\n",
			p.Rate, p.LatencyBaseline, p.LatencyStopWatch, p.Ratio,
			p.ClientToServerPerOp, p.ServerToClientPerOp, p.OpsCompleted)
	}
	return b.String()
}
