package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"stopwatch/internal/sim"
)

// Spec is one workload's generated input: fleet, guest mix, traffic and
// fault script. It is plain data and a pure function of (workload, seed);
// the harness in harness.go turns it into a simulated cloud.
type Spec struct {
	Workload string
	Seed     uint64

	Hosts, Capacity, Shards int
	CheckpointInstr         int64 // 0 = journal checkpointing off
	StallDetector           bool

	// Simulated schedule: traffic (pings, fetches, NFS ops, guest ticks)
	// runs until TrafficEnd; the run drains until End; Cluster.Run is
	// called in Slice-long steps.
	TrafficEnd, End, Slice sim.Time

	Echo        []EchoGuest
	FileServers []string // TCP file-server guest ids, one closed-loop downloader each
	NFS         string   // NFS guest id ("" = none)

	// PingEvery: one client pings every echo guest this often, from PingStart.
	PingStart, PingEvery sim.Time
	// Fetch sizes per downloader, consumed in order by the closed loop.
	FetchSizes [][]int
	NFSRate    float64 // ops per simulated second, open loop

	// Churn (fleet): every ChurnEvery from ChurnStart, ChurnOrder[k] is the
	// k-th echo guest evicted (after a quiet period) and re-admitted.
	ChurnStart, ChurnEvery sim.Time
	ChurnOrder             []int

	// Fault script (recovery).
	Kills   []Kill
	Drain   *MachineEvent // drain at At, undrain at Until
	Migrate *MachineEvent // one MigrateOp at At
}

// EchoGuest is one echo-app guest: periodic compute plus a send to the
// sink, and an echo of every inbound ping.
type EchoGuest struct {
	ID      string
	Period  sim.Time
	Compute int64
}

// Kill is one data-plane machine kill. The victim is chosen when the kill
// fires, Pick modulo the eligible machines (alive, undrained, with
// residents, none mid-operation). A lossy kill first cuts the victim's
// proposal links toward one survivor per resident for LossLead, at
// probability LossProb, so the survivor reconcile round has work to do.
type Kill struct {
	At       sim.Time
	Pick     int
	Lossy    bool
	LossProb float64
	LossLead sim.Time
}

// MachineEvent is a scripted control-plane event on a seeded machine or
// guest choice (Pick modulo the eligible set when it fires).
type MachineEvent struct {
	At, Until sim.Time
	Pick      int
}

// workloads lists the benchmark's workloads in their documented order.
var workloads = []string{"fleet", "fleet-sharded", "tenant-io", "recovery"}

// fetchSizes are the Fig-5 download sizes.
var fetchSizes = []int{10 << 10, 100 << 10, 1 << 20}

// genSpec generates a workload's input from its seed. The same
// (workload, seed) always yields an identical Spec.
func genSpec(workload string, seed uint64) (*Spec, error) {
	r := rand.New(rand.NewPCG(seed, 0x5eed_b0a7))
	switch workload {
	case "fleet", "fleet-sharded":
		s := &Spec{
			Workload: workload, Seed: seed,
			Hosts: 1000, Capacity: 4, Shards: 1,
			TrafficEnd: ms(80), End: ms(100), Slice: ms(10),
			PingStart: ms(5), PingEvery: ms(10),
			ChurnStart: ms(15), ChurnEvery: ms(20),
		}
		if workload == "fleet-sharded" {
			s.Shards = 2
		}
		s.Echo = genEcho(r, "g", 1000)
		s.ChurnOrder = r.Perm(len(s.Echo))
		return s, nil
	case "tenant-io":
		s := &Spec{
			Workload: workload, Seed: seed,
			Hosts: 9, Capacity: 4, Shards: 1,
			TrafficEnd: ms(20_000), End: ms(21_500), Slice: ms(50),
			PingStart: ms(5), PingEvery: ms(10),
			FileServers: []string{"fs0", "fs1", "fs2", "fs3"},
			NFS:         "nfs",
			NFSRate:     150,
		}
		s.Echo = genEcho(r, "echo", 2)
		s.FetchSizes = genFetches(r, len(s.FileServers), 400, fetchSizes)
		return s, nil
	case "recovery":
		s := &Spec{
			Workload: workload, Seed: seed,
			Hosts: 24, Capacity: 4, Shards: 1,
			CheckpointInstr: 2_000_000, StallDetector: true,
			TrafficEnd: ms(11_000), End: ms(12_000), Slice: ms(50),
			PingStart: ms(5), PingEvery: ms(10),
			FileServers: []string{"fs0", "fs1", "fs2", "fs3"},
		}
		s.Echo = genEcho(r, "echo", 12)
		s.FetchSizes = genFetches(r, len(s.FileServers), 400, fetchSizes[:2])
		// 30 kills, one every 350ms from 400ms, each jittered by up to
		// 40ms; every other one is preceded by a lossy proposal window of
		// seeded length and loss probability.
		for k := 0; k < 30; k++ {
			kl := Kill{
				At:   ms(400 + 350*float64(k) + 40*r.Float64()),
				Pick: r.IntN(1 << 20),
			}
			if k%2 == 1 {
				kl.Lossy = true
				kl.LossProb = 0.5 + 0.5*r.Float64()
				kl.LossLead = ms(10 + 30*r.Float64())
			}
			s.Kills = append(s.Kills, kl)
		}
		// Drain and migrate land between kills (the kill grid is 350ms;
		// these sit 175ms off it).
		s.Drain = &MachineEvent{At: ms(2_675), Until: ms(3_375), Pick: r.IntN(1 << 20)}
		s.Migrate = &MachineEvent{At: ms(6_875), Pick: r.IntN(1 << 20)}
		return s, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
}

func ms(v float64) sim.Time { return sim.FromMillis(v) }

// genEcho draws n echo guests with seeded tick periods (2-4ms) and compute
// bursts (100k-300k branches).
func genEcho(r *rand.Rand, prefix string, n int) []EchoGuest {
	out := make([]EchoGuest, n)
	width := len(fmt.Sprint(n - 1))
	for i := range out {
		out[i] = EchoGuest{
			ID:      fmt.Sprintf("%s%0*d", prefix, width, i),
			Period:  ms(float64(2 + r.IntN(3))),
			Compute: 100_000 + int64(r.IntN(200_001)),
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// genFetches draws each downloader's size sequence from sizes.
func genFetches(r *rand.Rand, downloaders, n int, sizes []int) [][]int {
	out := make([][]int, downloaders)
	for d := range out {
		out[d] = make([]int, n)
		for i := range out[d] {
			out[d][i] = sizes[r.IntN(len(sizes))]
		}
	}
	return out
}
