package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestGenSpecIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := genSpec(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genSpec(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w)
		}
		c, _ := genSpec(w, 8)
		c.Seed = a.Seed
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same input", w)
		}
	}
	fleet, _ := genSpec("fleet", 3)
	sharded, _ := genSpec("fleet-sharded", 3)
	if sharded.Shards != 2 || fleet.Shards != 1 {
		t.Fatalf("shards: fleet %d, fleet-sharded %d", fleet.Shards, sharded.Shards)
	}
	sharded.Workload, sharded.Shards = fleet.Workload, fleet.Shards
	if !reflect.DeepEqual(fleet, sharded) {
		t.Error("fleet-sharded's input differs from fleet's beyond the shard count")
	}
	if _, err := genSpec("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: percentile must sort
	}
	return v
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{20, .5, true, 10},
		{19, .5, false, 0},
		{100, .9, true, 90},
		{99, .9, false, 0},
		{1000, .99, true, 990},
		{999, .99, false, 0},
		{0, .5, false, 0},
	} {
		got := percentile(seq(c.n), c.q)
		if got.OK != c.ok || got.Value != c.want || got.N != c.n {
			t.Errorf("percentile(n=%d, q=%v) = %+v, want ok=%v value=%v", c.n, c.q, got, c.ok, c.want)
		}
		if !strings.Contains(got.String(), "n=") {
			t.Errorf("%q does not print the sample count", got.String())
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "slice", Parent: -1, Start: 0, End: 100},
		{Name: "apply", Parent: 0, Start: 10, End: 30},
		{Name: "send", Parent: 0, Start: 20, End: 50},  // overlaps the apply: counted once
		{Name: "late", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "inner", Parent: 1, Start: 12, End: 18},
		{Name: "root2", Parent: -1, Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	self := selfTimes(spans)
	if got := selfShare(spans, self, "apply", "slice"); got != 0.14 {
		t.Errorf("selfShare(apply over slice) = %v, want 0.14", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	a := tr.begin("slice")
	b := tr.begin("apply")
	tr.end(b)
	c := tr.begin("send")
	tr.end(c)
	tr.end(a)
	d := tr.begin("replay")
	tr.end(d)
	parents := []int{tr.spans[a].Parent, tr.spans[b].Parent, tr.spans[c].Parent, tr.spans[d].Parent}
	if want := []int{-1, a, a, -1}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // untraced runs call the same code
}

func TestLayerFolding(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"stopwatch/internal/netsim.(*Network).Send", "main.(*harness).pingTick"}, "netsim"},
		{[]string{"stopwatch/internal/sim.(*Loop).siftDown", "stopwatch/internal/sim.(*Loop).pop"}, "sim"},
		{[]string{"stopwatch/internal/vmm.(*exec).fire.func1"}, "vmm"},
		{[]string{"stopwatch/internal/sim.keyed[go.shape.*uint8]"}, "sim"},
		{[]string{"stopwatch/internal/controlplane.(*ControlPlane).Apply"}, "controlplane"},
		// Runtime and library helpers are billed to their nearest layer caller.
		{[]string{"runtime.mapaccess2_faststr", "stopwatch/internal/netsim.(*Network).linkOn"}, "netsim"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2", "stopwatch/internal/vmm.(*Runtime).tooFarAhead"}, "vmm"},
		{[]string{"runtime.memmove", "runtime.growslice", "stopwatch/internal/multicast.(*Receiver).deliver"}, "multicast"},
		// Garbage collection, in the background or as an allocation assist.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "stopwatch/internal/guest.(*VM).Send"}, "gc"},
		{[]string{"runtime.(*sweepLocked).sweep", "runtime.(*mcentral).cacheSpan", "runtime.mallocgc", "stopwatch/internal/gateway.(*Egress).forward"}, "gc"},
		// Scheduler and idle frames with no program caller.
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"runtime.usleep", "runtime.runqgrab"}, "runtime"},
		// Neither a layer nor the runtime.
		{[]string{"main.(*pingSink).deliver"}, "other"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.run"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return b.bytes(field, inner)
}

func TestParseProfileExpandsInlinedFrames(t *testing.T) {
	strs := []string{"", "samples", "count", "stopwatch/internal/sim.(*Loop).pop", "runtime.mallocgc", "stopwatch/internal/netsim.(*Network).Send"}
	var p pb
	// Samples: one packed, one with unpacked (repeated varint) fields.
	p = p.bytes(2, pb{}.packed(1, 2, 1).packed(2, 3, 30_000_000))
	p = p.bytes(2, pb{}.varint(1, 3).varint(2, 5))
	// Location 2 inlines mallocgc into Loop.pop: leaf line first.
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 10)))
	p = p.bytes(4, pb{}.varint(1, 2).varint(3, 0xdead).bytes(4, pb{}.varint(1, 20).varint(2, 7)).bytes(4, pb{}.varint(1, 10)))
	p = p.bytes(4, pb{}.varint(1, 3).bytes(4, pb{}.varint(1, 30)))
	p = p.bytes(5, pb{}.varint(1, 10).varint(2, 3))
	p = p.bytes(5, pb{}.varint(1, 20).varint(2, 4))
	p = p.bytes(5, pb{}.varint(1, 30).varint(2, 5))
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	_, _ = zw.Write(p)
	_ = zw.Close()
	for name, data := range map[string][]byte{"raw": p, "gzip": gz.Bytes()} {
		got, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []sample{
			{stack: []string{"runtime.mallocgc", "stopwatch/internal/sim.(*Loop).pop", "stopwatch/internal/sim.(*Loop).pop"}, count: 3},
			{stack: []string{"stopwatch/internal/netsim.(*Network).Send"}, count: 5},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed %+v, want %+v", name, got, want)
		}
		shares := foldShares(got)
		if shares["sim"] != 3.0/8 || shares["netsim"] != 5.0/8 {
			t.Errorf("%s: shares %v", name, shares)
		}
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	x := 0.0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		v := make([]float64, 1000)
		for i := range v {
			v[i] = r.Float64()
		}
		sort.Float64s(v)
		x += v[0]
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if len(s.stack) == 0 || s.count <= 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
	_ = x
}

// miniSpec is a small recovery-style workload exercising every harness
// path (pings, downloads, NFS, kills with lossy windows, drain, migrate,
// churn) in well under a second of host time.
func miniSpec(shards int) *Spec {
	r := rand.New(rand.NewPCG(5, 6))
	s := &Spec{
		Workload: "mini", Seed: 5,
		Hosts: 12, Capacity: 4, Shards: shards,
		CheckpointInstr: 2_000_000, StallDetector: true,
		TrafficEnd: ms(2_200), End: ms(3_000), Slice: ms(50),
		PingStart: ms(5), PingEvery: ms(4),
		ChurnStart: ms(15), ChurnEvery: ms(100),
		FileServers: []string{"fs0"},
		NFS:         "nfs", NFSRate: 100,
		Drain:   &MachineEvent{At: ms(1_500), Until: ms(1_800), Pick: 3},
		Migrate: &MachineEvent{At: ms(1_900), Pick: 1},
	}
	s.Echo = genEcho(r, "e", 6)
	s.ChurnOrder = r.Perm(len(s.Echo))
	s.FetchSizes = genFetches(r, 1, 50, fetchSizes[:2])
	for k := 0; k < 3; k++ {
		s.Kills = append(s.Kills, Kill{At: ms(300 + 400*float64(k)), Pick: k, Lossy: k == 1, LossProb: 1, LossLead: ms(20)})
	}
	return s
}

func TestHarnessIsDeterministicAcrossShardsAndTracing(t *testing.T) {
	a, err := runRep(miniSpec(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Failures) > 0 {
		t.Fatalf("check failures: %v", a.Failures)
	}
	if a.Sim.Kills != 3 || len(a.Sim.Recovery) != 3 || len(a.Sim.Fetch) == 0 || len(a.Sim.NFS) == 0 || len(a.Sim.RTT) == 0 {
		t.Fatalf("workload did not exercise every path: %+v", a.Sim)
	}
	b, err := runRep(miniSpec(2), newTracer(), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSim(a, b); err != nil {
		t.Errorf("sharded traced run vs sequential untraced run: %v", err)
	}
}

// benchmarkJSON mirrors the keys of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheMetricsPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	s := miniSpec(1)
	e2e, err := measure(s, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := measureTraced(s, options{seconds: 0, outDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: program prints %s [%s], BENCHMARK.json has [%s] (listed %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	wantE2E, wantLay := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		wantLay[m.Name] = m.Unit
	}
	check("end_to_end", e2e.metrics, wantE2E)
	check("per_layer", lay.metrics, wantLay)
	for _, m := range e2e.metrics {
		if m.Value == 0 {
			t.Errorf("end-to-end metric %s reads 0", m.Name)
		}
	}
}
