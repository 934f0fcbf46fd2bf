package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"stopwatch"
	"stopwatch/internal/apps"
	"stopwatch/internal/controlplane"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
)

// Fabric endpoints the benchmark attaches.
const (
	pingerAddr netsim.Addr = "swbench-pinger"
	sinkAddr   netsim.Addr = "swbench-sink"
)

// harness builds and drives one repetition of a workload through the
// façade and the layers' exported functions, and reads their public
// counters afterwards. Wall-clock readings go only into the tracer and the
// host-time fields of the result, never into the simulation.
type harness struct {
	s  *Spec
	tr *tracer
	c  *core.Cluster
	cp *controlplane.ControlPlane
	// ctrl is the control loop (drivers, control plane); edge is shard 0's
	// loop, where clients and the gateways live.
	ctrl, edge *sim.Loop

	slots   []string  // echo slot → live guest id ("" while retired)
	retired []retiree // churn: retired guests, evicted two churn periods later
	churnK  int

	pings     *pingSink
	pingsSent int
	dls       []*downloader
	nfs       *apps.NFSLoadGen
	clients   []*transport.Client

	kills []*killRec
	open  map[int]*killRec // machine → kill awaiting its evacuation

	evicted      layerCounts // folded counters of evicted guests
	pendingMax   int
	failures     []string // check failures no *_fail_frac metric counts
	lockstepErrs []string // counted by lockstep_fail_frac
	failedOps    []string // the first failed ops, counted by op_fail_frac
}

// retiree is a churn victim that no longer receives pings.
type retiree struct {
	id   string
	slot int
}

// pingSink is the ping client's fabric node: it records the round trip of
// each first reply. It runs on shard 0's loop.
type pingSink struct {
	loop *sim.Loop
	rtts []sim.Time
	seen []bool
	dups int
}

func (p *pingSink) deliver(pkt *netsim.Packet) {
	pg, ok := pkt.Payload.(ping)
	if !ok || pkt.Kind != "guest:data" {
		return
	}
	for pg.id >= len(p.seen) {
		p.seen = append(p.seen, make([]bool, len(p.seen)+1024)...)
	}
	if p.seen[pg.id] {
		p.dups++
		return
	}
	p.seen[pg.id] = true
	p.rtts = append(p.rtts, p.loop.Now()-pg.sent)
}

// downloader is one closed-loop file client: the next fetch starts when
// the previous completes, until the traffic window closes.
type downloader struct {
	h     *harness
	dl    *apps.Downloader
	svc   netsim.Addr
	sizes []int
	next  int // fetches issued
	lat   []sim.Time
	cb    func(sim.Time)
}

func (d *downloader) fetch() {
	size := d.sizes[d.next%len(d.sizes)]
	d.next++
	if err := d.dl.Fetch(d.svc, apps.ModeTCP, size, d.cb); err != nil {
		d.h.fail("fetch from %s: %v", d.svc, err)
	}
}

func (d *downloader) done(lat sim.Time) {
	d.lat = append(d.lat, lat)
	if d.h.edge.Now() < d.h.s.TrafficEnd {
		d.fetch()
	}
}

// killRec follows one machine kill through detection and evacuation.
type killRec struct {
	machine              int
	at                   sim.Time
	detectAt, evacDoneAt sim.Time
	detected, evacuated  bool
	lossy                []netsim.Addr // src,dst pairs under injected loss
	done                 func()        // advances the fault script
}

// layerCounts are per-layer counters read from replicas' public stats.
type layerCounts struct {
	netIRQ, diskIRQ, timerIRQ          int64
	divergences, replayed, checkpoints int
}

func (a *layerCounts) add(b layerCounts) {
	a.netIRQ += b.netIRQ
	a.diskIRQ += b.diskIRQ
	a.timerIRQ += b.timerIRQ
	a.divergences += b.divergences
	a.replayed += b.replayed
	a.checkpoints += b.checkpoints
}

func guestCounts(g *core.Guest) layerCounts {
	lc := layerCounts{checkpoints: g.JournalStats().Checkpoints}
	for _, r := range g.Replicas() {
		vs := r.Runtime().VM().Stats()
		rs := r.Runtime().Stats()
		lc.netIRQ += vs.NetInterrupts
		lc.diskIRQ += vs.DiskInterrupts
		lc.timerIRQ += vs.TimerInterrupts
		lc.divergences += rs.Divergences
		lc.replayed += rs.ReplayedRecords
	}
	return lc
}

func (h *harness) fail(format string, args ...any) {
	h.failures = append(h.failures, fmt.Sprintf(format, args...))
}

// rep is one repetition's result. The *S, HeapMB and GC fields are host
// readings; Sim and the fingerprint are simulated and must repeat exactly
// for a seed.
type rep struct {
	SetupS, ClusterS, AdmitS float64 // wall seconds
	// RunS is the process's CPU seconds (all threads, user and system)
	// spent simulating the span: unlike wall time it excludes time the
	// hypervisor steals from a shared machine's virtual CPUs. RunWallS is
	// the wall time of the same span.
	RunS, RunWallS float64
	HeapMB         float64
	GC             gcDelta

	Sim                    simResult
	Print                  fingerprint
	EventAllocs            uint64
	PendingMax             int
	Failures, LockstepErrs []string
	FailedOps              []string
	PoolOps                []poolOp
}

// simResult holds every simulated metric of a run.
type simResult struct {
	RTT, Fetch, NFS, Recovery, Detect, Evacuate []float64 // ms

	Requests, Unanswered int
	DupReplies           int // pings answered twice: an output-divergence symptom
	Ops, OpsFailed       int
	Guests, Diverged     int
	Kills                int

	Events, Delivered, Lost            uint64
	Layer                              layerCounts
	IngressReplicated, EgressForwarded uint64
	EgressStuck                        int
	ClientPkts                         uint64
	Reconcile                          [3]int // rounds, repairs, retries
	QuiesceRetries, Refused            int
}

// fingerprint identifies a run's simulated behaviour.
type fingerprint struct {
	Events, Delivered uint64
	OpLog, Sim        uint64 // fnv-64a of FormatOpLog and of the simulated metrics
}

func (f fingerprint) String() string {
	return fmt.Sprintf("events=%d delivered=%d oplog=%016x sim=%016x", f.Events, f.Delivered, f.OpLog, f.Sim)
}

// runRep builds the workload's cloud, drives it to the end of its
// simulated span and collects the result. tr may be nil (untraced); when
// prof is non-nil a CPU profile of setup and run is written to it.
func runRep(s *Spec, tr *tracer, prof *bytes.Buffer) (*rep, error) {
	h := &harness{s: s, tr: tr, open: map[int]*killRec{}}
	out := &rep{}

	runtime.GC()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var err error
	if out.ClusterS, out.AdmitS, err = h.setup(); err != nil {
		return nil, err
	}
	out.SetupS = out.ClusterS + out.AdmitS

	gc0 := readGC()
	t0, cpu0 := time.Now(), cpuTime()
	for t := s.Slice; t <= s.End; t += s.Slice {
		sp := tr.begin("run:slice")
		if err := h.c.Run(t); err != nil {
			return nil, fmt.Errorf("run to %v: %w", t, err)
		}
		tr.end(sp)
		h.samplePending()
	}
	out.RunS, out.RunWallS = (cpuTime() - cpu0).Seconds(), time.Since(t0).Seconds()
	out.GC = readGC().sub(gc0)
	if prof != nil {
		pprof.StopCPUProfile()
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.HeapMB = float64(ms.HeapAlloc) / (1 << 20)

	out.Sim = h.collect()
	out.PoolOps = poolOps(h.cp.Log())
	out.Print = h.fingerprint(out.Sim)
	out.EventAllocs, out.PendingMax = h.implCounts()
	out.Failures, out.LockstepErrs, out.FailedOps = h.failures, h.lockstepErrs, h.failedOps
	return out, nil
}

// cpuTime is the CPU time the process has used, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupOnly times the set-up phases of a fresh cloud and discards it.
func setupOnly(s *Spec) (float64, error) {
	runtime.GC()
	h := &harness{s: s, open: map[int]*killRec{}}
	cluster, admit, err := h.setup()
	return cluster + admit, err
}

// setup runs and times the set-up phases: NewCluster and NewControlPlane,
// then the initial admissions, clients and Start.
func (h *harness) setup() (clusterS, admitS float64, err error) {
	t0 := time.Now()
	sp := h.tr.begin("setup:cluster")
	if err := h.buildCluster(); err != nil {
		return 0, 0, err
	}
	h.tr.end(sp)
	t1 := time.Now()
	sp = h.tr.begin("setup:admit")
	if err := h.admitAndStart(); err != nil {
		return 0, 0, err
	}
	h.tr.end(sp)
	return t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), nil
}

func (h *harness) buildCluster() error {
	s := h.s
	cfg := stopwatch.DefaultClusterConfig()
	cfg.Seed = s.Seed
	cfg.Hosts = s.Hosts
	cfg.Shards = s.Shards
	cfg.VMM.CheckpointInstr = s.CheckpointInstr
	c, err := stopwatch.NewCluster(cfg)
	if err != nil {
		return fmt.Errorf("new cluster: %w", err)
	}
	cp, err := stopwatch.NewControlPlane(c, stopwatch.DefaultControlPlaneConfig(s.Capacity))
	if err != nil {
		return fmt.Errorf("new control plane: %w", err)
	}
	h.c, h.cp, h.ctrl, h.edge = c, cp, c.Loop(), c.Coordinator().Shards()[0]
	if s.StallDetector {
		if err := cp.EnableStallDetector(0); err != nil {
			return err
		}
	}
	h.pings = &pingSink{loop: h.edge}
	if err := c.Net().Attach(&netsim.FuncNode{Addr: pingerAddr, Fn: h.pings.deliver}); err != nil {
		return err
	}
	if err := c.Net().Attach(&netsim.FuncNode{Addr: sinkAddr}); err != nil {
		return err
	}
	cp.Watch(h.onEvent)
	return nil
}

// admitAndStart admits the initial guests, attaches the clients, starts
// the cluster and schedules traffic and the fault script.
func (h *harness) admitAndStart() error {
	s := h.s
	h.slots = make([]string, len(s.Echo))
	for i, g := range s.Echo {
		if err := h.admit(g.ID, newEchoFactory(g, s.TrafficEnd, sinkAddr)); err != nil {
			return err
		}
		h.slots[i] = g.ID
	}
	for _, id := range s.FileServers {
		if err := h.admit(id, func() guest.App {
			fs, err := apps.NewFileServer(apps.DefaultFileServerConfig())
			if err != nil {
				panic(err) // the default config is valid
			}
			return fs
		}); err != nil {
			return err
		}
	}
	if s.NFS != "" {
		if err := h.admit(s.NFS, func() guest.App {
			srv, err := apps.NewNFSServer(8)
			if err != nil {
				panic(err) // window 8 is valid
			}
			return srv
		}); err != nil {
			return err
		}
	}
	for i, id := range s.FileServers {
		cl, err := h.c.NewClient(netsim.Addr(fmt.Sprintf("swbench-dl%d", i)))
		if err != nil {
			return err
		}
		h.clients = append(h.clients, cl)
		d := &downloader{h: h, dl: apps.NewDownloader(cl), svc: stopwatch.GuestAddr(id), sizes: s.FetchSizes[i]}
		d.cb = d.done
		h.dls = append(h.dls, d)
	}
	if s.NFS != "" {
		cl, err := h.c.NewClient("swbench-nfs")
		if err != nil {
			return err
		}
		h.clients = append(h.clients, cl)
		gen, err := apps.NewNFSLoadGen(h.edge, h.c.Source().Stream("swbench:nfs"), cl, stopwatch.GuestAddr(s.NFS),
			apps.PaperMix(), apps.NFSLoadGenConfig{Processes: 5, RatePerSec: s.NFSRate})
		if err != nil {
			return err
		}
		h.nfs = gen
	}
	h.c.Start()

	if len(s.Echo) > 0 {
		h.ctrl.At(s.PingStart, "swbench:ping", h.pingTick)
	}
	if len(h.dls) > 0 {
		h.ctrl.At(ms(20), "swbench:fetch", func() {
			for _, d := range h.dls {
				d.fetch()
			}
		})
	}
	if h.nfs != nil {
		h.nfs.Start(s.TrafficEnd)
	}
	if s.ChurnEvery > 0 {
		h.ctrl.At(s.ChurnStart, "swbench:churn", h.churnTick)
	}
	h.scheduleFaults()
	return nil
}

// apply submits one op inside an Apply span.
func (h *harness) apply(op controlplane.Op) *controlplane.Outcome {
	sp := h.tr.begin("controlplane:apply")
	oc := h.cp.Apply(op)
	h.tr.end(sp)
	return oc
}

func (h *harness) admit(id string, factory func() guest.App) error {
	if oc := h.apply(controlplane.AdmitOp{GuestID: id, Factory: factory}); oc.Err != nil {
		return fmt.Errorf("admit %s: %w", id, oc.Err)
	}
	return nil
}

// pingTick pings every live echo guest, open loop.
func (h *harness) pingTick() {
	now := h.ctrl.Now()
	for _, id := range h.slots {
		if id == "" {
			continue
		}
		sp := h.tr.begin("netsim:send")
		h.c.Net().Send(&netsim.Packet{Src: pingerAddr, Dst: stopwatch.GuestAddr(id), Size: 128, Kind: "ping",
			Payload: ping{id: h.pingsSent, sent: now}})
		h.tr.end(sp)
		h.pingsSent++
	}
	if next := now + h.s.PingEvery; next < h.s.TrafficEnd {
		h.ctrl.At(next, "swbench:ping", h.pingTick)
	}
}

// churnTick evicts the guest retired two periods ago (its pings have all
// been answered by now), re-admits a fresh guest into that slot, and
// retires the next victim from the ping set.
func (h *harness) churnTick() {
	s := h.s
	if len(h.retired) == 2 {
		r := h.retired[0]
		h.retired = h.retired[1:]
		h.evict(r.id)
		fresh := fmt.Sprintf("%s-r%d", s.Echo[r.slot].ID, h.churnK)
		oc := h.apply(controlplane.AdmitOp{GuestID: fresh, Factory: newEchoFactory(s.Echo[r.slot], s.TrafficEnd, sinkAddr)})
		if oc.Err == nil {
			h.slots[r.slot] = fresh
		}
	}
	victim := s.ChurnOrder[h.churnK%len(s.ChurnOrder)]
	if id := h.slots[victim]; id != "" {
		h.retired = append(h.retired, retiree{id: id, slot: victim})
		h.slots[victim] = ""
	}
	h.churnK++
	if next := h.ctrl.Now() + s.ChurnEvery; next < s.TrafficEnd {
		h.ctrl.At(next, "swbench:churn", h.churnTick)
	}
}
