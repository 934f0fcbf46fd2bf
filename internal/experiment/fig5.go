package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
)

// Fig5Config parameterizes the file-download latency sweep.
type Fig5Config struct {
	Seed uint64
	// SizesKB are the file sizes (paper: 1KB–10MB, log scale).
	SizesKB []int
	// Runs per point (paper: 10).
	Runs int
	// Timeout per download.
	Timeout sim.Time
}

// DefaultFig5Config mirrors the paper's sweep.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Seed:    11,
		SizesKB: []int{1, 10, 100, 1000, 10000},
		Runs:    10,
		Timeout: 300 * sim.Second,
	}
}

// Fig5Point is one (size, transport) row.
type Fig5Point struct {
	SizeKB int
	// Mean latencies (ms).
	HTTPBaseline, HTTPStopWatch float64
	UDPBaseline, UDPStopWatch   float64
	// Ratios.
	HTTPRatio, UDPRatio float64
}

// Fig5Result is the full sweep.
type Fig5Result struct {
	Config Fig5Config
	Points []Fig5Point
}

// RunFig5 sweeps sizes × transports × VMMs. Every download is from a cold
// start: a fresh cluster per run, as in the paper.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	if len(cfg.SizesKB) == 0 || cfg.Runs <= 0 {
		return nil, fmt.Errorf("%w: fig5 config %+v", core.ErrCluster, cfg)
	}
	res := &Fig5Result{Config: cfg}
	for _, kb := range cfg.SizesKB {
		p := Fig5Point{SizeKB: kb}
		for _, m := range []struct {
			mean *float64
			fs   apps.FileServerMode
			vmm  core.Mode
		}{
			{&p.HTTPBaseline, apps.ModeTCP, core.ModeBaseline},
			{&p.HTTPStopWatch, apps.ModeTCP, core.ModeStopWatch},
			{&p.UDPBaseline, apps.ModeUDP, core.ModeBaseline},
			{&p.UDPStopWatch, apps.ModeUDP, core.ModeStopWatch},
		} {
			for run := 0; run < cfg.Runs; run++ {
				cc := core.DefaultClusterConfig()
				cc.Seed, cc.Mode = cfg.Seed+uint64(run)*1337, m.vmm
				r, err := RunFig5One(cc, kb, m.fs, cfg.Timeout)
				if err != nil {
					return nil, err
				}
				*m.mean += r.MeanMS()
			}
			*m.mean /= float64(cfg.Runs)
		}
		p.HTTPRatio = p.HTTPStopWatch / p.HTTPBaseline
		p.UDPRatio = p.UDPStopWatch / p.UDPBaseline
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// RunFig5One is one Fig-5 download: a client fetches a kb-KB file over
// mode from a fresh cluster built from cc, whose file server is replicated
// on hosts 0-2 under StopWatch.
func RunFig5One(cc core.ClusterConfig, kb int, mode apps.FileServerMode, timeout sim.Time) (*OneRun, error) {
	hosts := onHosts(&cc, []int{0, 1, 2})
	c, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	fsCfg := apps.DefaultFileServerConfig()
	fsCfg.Mode = mode
	g, err := c.Deploy("web", hosts, func() guest.App { return must(apps.NewFileServer(fsCfg)) })
	if err != nil {
		return nil, err
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		return nil, err
	}
	c.Start()
	dl := apps.NewDownloader(cl)
	var lat sim.Time
	c.Loop().At(20*sim.Millisecond, "fetch", func() {
		_ = dl.Fetch(core.ServiceAddr("web"), mode, kb<<10, func(l sim.Time) {
			lat = l
			// Quiesce quickly once done.
			c.Stop()
		})
	})
	if err := c.Run(timeout); err != nil {
		return nil, err
	}
	if lat == 0 {
		return nil, fmt.Errorf("%w: %dKB %v/%v download did not complete", core.ErrCluster, kb, mode, cc.Mode)
	}
	return newOneRun(c, g, cl, []sim.Time{lat}), nil
}

// Render prints the Fig-5 table.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5: file-retrieval latency (ms, mean of %d runs)\n", r.Config.Runs)
	fmt.Fprintf(&b, "%8s %12s %12s %8s %12s %12s %8s\n",
		"size KB", "HTTP base", "HTTP SW", "ratio", "UDP base", "UDP SW", "ratio")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %12.2f %12.2f %8.2f %12.2f %12.2f %8.2f\n",
			p.SizeKB, p.HTTPBaseline, p.HTTPStopWatch, p.HTTPRatio,
			p.UDPBaseline, p.UDPStopWatch, p.UDPRatio)
	}
	return b.String()
}
