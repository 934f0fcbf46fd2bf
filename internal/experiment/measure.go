package experiment

import (
	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/stats"
	"stopwatch/internal/transport"
	"stopwatch/internal/vmm"
)

// onHosts places a guest on hosts under StopWatch. The baseline does not
// replicate: it runs a one-host cluster and every guest lives on host 0.
func onHosts(cc *core.ClusterConfig, hosts []int) []int {
	if cc.Mode != core.ModeBaseline {
		return hosts
	}
	cc.Hosts = 1
	return []int{0}
}

// must unwraps an app constructor inside a guest factory, which cannot
// return an error; the experiments pass only valid app configs.
func must[T any](app T, err error) T {
	if err != nil {
		panic(err)
	}
	return app
}

// probeRun is the side-channel measurement behind Fig 4 and the leader
// ablation: an attacker guest observes a constant-rate inbound probe
// stream while, optionally, a victim file server on overlapping hosts
// serves back-to-back downloads.
type probeRun struct {
	Seed  uint64
	Mode  core.Mode
	Hosts int
	// Attacker and Victim place the two guests; a nil Victim runs without
	// one.
	Attacker, Victim []int
	VictimFileKB     int
	// Streams is the number of concurrent victim download streams.
	Streams int
	// Policy is the attacker replicas' delivery policy.
	Policy vmm.DeliveryPolicy
	// Slot is the attacker replica whose observations are read.
	Slot     int
	ProbeGap sim.Time
	Duration sim.Time
}

// run returns the inter-delivery gaps (ms) seen at the attacker's replica
// Slot, and the attacker and victim guests (vic is nil without a victim).
func (p probeRun) run() (gapsMS []float64, att, vic *core.Guest, err error) {
	cc := core.DefaultClusterConfig()
	cc.Seed, cc.Mode, cc.Hosts = p.Seed, p.Mode, p.Hosts
	attHosts, vicHosts := onHosts(&cc, p.Attacker), p.Victim
	if vicHosts != nil {
		vicHosts = onHosts(&cc, vicHosts)
	}
	c, err := core.New(cc)
	if err != nil {
		return nil, nil, nil, err
	}
	if att, err = c.Deploy("attacker", attHosts, func() guest.App { return apps.NewProbeApp() }); err != nil {
		return nil, nil, nil, err
	}
	for _, r := range att.Replicas() {
		r.NetDev().Policy = p.Policy
	}
	if vicHosts != nil {
		vic, err = c.Deploy("victim", vicHosts, func() guest.App { return must(apps.NewFileServer(apps.DefaultFileServerConfig())) })
		if err != nil {
			return nil, nil, nil, err
		}
	}
	c.Start()

	ps := apps.NewProbeSource(c.Net(), c.Loop(), c.Source().Stream("probe"),
		"colluder", core.ServiceAddr("attacker"), p.ProbeGap)
	ps.Constant = true
	ps.Start(p.Duration)

	if vic != nil {
		cl, err := c.NewClient("victim-client")
		if err != nil {
			return nil, nil, nil, err
		}
		dl := apps.NewDownloader(cl)
		var kick func()
		kick = func() {
			_ = dl.Fetch(core.ServiceAddr("victim"), apps.ModeTCP, p.VictimFileKB<<10, func(sim.Time) { kick() })
		}
		for i := 0; i < p.Streams; i++ {
			c.Loop().At(sim.Time(i+1)*5*sim.Millisecond, "victim-load", kick)
		}
	}

	if err := c.Run(p.Duration + 200*sim.Millisecond); err != nil {
		return nil, nil, nil, err
	}
	for _, g := range att.App(p.Slot).(*apps.ProbeApp).InterDeliveryGaps() {
		gapsMS = append(gapsMS, g/1e6)
	}
	return gapsMS, att, vic, nil
}

// leak measures how far a victim shifts the attacker's gap distribution:
// the KS distance between the samples with and without the victim, and the
// χ² observations needed to detect the shift at each confidence, with bins
// cut at the without-victim sample's quantiles.
func leak(with, without []float64, bins int, confidences []float64) (ks float64, obs []float64, err error) {
	eV, err := stats.NewECDF(with)
	if err != nil {
		return 0, nil, err
	}
	eN, err := stats.NewECDF(without)
	if err != nil {
		return 0, nil, err
	}
	bn := stats.Binning{}
	for i := 1; i < bins; i++ {
		bn.Edges = append(bn.Edges, eN.Quantile(float64(i)/float64(bins)))
	}
	obs, err = stats.DetectionCurve(bn.CellProbs(eN.CDF), bn.CellProbs(eV.CDF), confidences)
	return stats.KSDistanceECDF(eV, eN), obs, err
}

// OneRun is what a single Fig-5 download or Fig-6 NFS run reports.
type OneRun struct {
	// Latencies holds the download's latency, or every completed NFS op's.
	Latencies []sim.Time
	// Issued and Completed count NFS ops (Fig 6 only).
	Issued, Completed uint64
	// PacketsSent and PacketsReceived are counted at the client.
	PacketsSent, PacketsReceived uint64
	// Lockstep is the service's replica output check (nil under the
	// baseline, which does not replicate).
	Lockstep    error
	Divergences int
	// EgressForwarded is 0 under the baseline, which has no egress node.
	EgressForwarded uint64
}

// MeanMS is the mean latency in ms.
func (r *OneRun) MeanMS() float64 {
	var sum sim.Time
	for _, l := range r.Latencies {
		sum += l
	}
	return (sum / sim.Time(len(r.Latencies))).Milliseconds()
}

func newOneRun(c *core.Cluster, g *core.Guest, cl *transport.Client, lats []sim.Time) *OneRun {
	r := &OneRun{
		Latencies:       lats,
		PacketsSent:     cl.PacketsSent(),
		PacketsReceived: cl.PacketsReceived(),
		Lockstep:        g.CheckLockstep(),
		Divergences:     g.Divergences(),
	}
	if e := c.Egress(); e != nil {
		r.EgressForwarded = e.Forwarded()
	}
	return r
}
