// Strict decoding from the parsed node tree into the Scenario schema:
// every map is checked against its allowed key set, every scalar against
// its expected type, and every error carries file:line provenance. The
// decoder keeps the first error and turns every later read into a no-op,
// so each section reads as a flat list of fields.

package scenario

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Load reads and decodes a scenario file (YAML subset or JSON by
// content). Static validation (Validate) is a separate pass.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, src)
}

// Parse decodes scenario source; path labels error messages.
func Parse(path string, src []byte) (*Scenario, error) {
	root, err := parseTree(path, src)
	if err != nil {
		return nil, err
	}
	d := &dec{path: path}
	sc := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	sc.Path = path
	return sc, nil
}

type dec struct {
	path string
	err  error // the first defect; once set, every read is a no-op
}

// fail records a defect unless an earlier one is already recorded.
func (d *dec) fail(line int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s:%d: %s", d.path, line, fmt.Sprintf(format, args...))
	}
}

func (d *dec) isMap(n *node, what string) bool {
	if n.kind != mapNode {
		d.fail(n.line, "%s must be a mapping", what)
		return false
	}
	return d.err == nil
}

// checkKeys rejects unknown keys, in file order.
func (d *dec) checkKeys(n *node, what string, allowed ...string) {
	ok := map[string]bool{}
	for _, k := range allowed {
		ok[k] = true
	}
	for _, k := range n.keys {
		if !ok[k] {
			d.fail(n.keyLine[k], "unknown %s key %q (allowed: %s)", what, k, strings.Join(allowed, ", "))
			return
		}
	}
}

// val returns the key's value, or nil when it is absent or a defect is
// already recorded.
func (d *dec) val(n *node, key string) *node {
	if d.err != nil {
		return nil
	}
	return n.vals[key]
}

func (d *dec) str(n *node, key string) string {
	v := d.val(n, key)
	if v == nil {
		return ""
	}
	if v.kind != scalarNode {
		d.fail(v.line, "%q must be a scalar", key)
	}
	return v.scalar
}

func (d *dec) int64Field(n *node, key string, def int64) int64 {
	v := d.val(n, key)
	if v == nil {
		return def
	}
	if v.kind != scalarNode || v.scalar == "" {
		d.fail(v.line, "%q must be an integer", key)
		return 0
	}
	i, err := strconv.ParseInt(strings.ReplaceAll(v.scalar, "_", ""), 10, 64)
	if err != nil {
		d.fail(v.line, "%q must be an integer, got %q", key, v.scalar)
	}
	return i
}

func (d *dec) intField(n *node, key string, def int) int {
	return int(d.int64Field(n, key, int64(def)))
}

func (d *dec) floatField(n *node, key string, def float64) float64 {
	v := d.val(n, key)
	if v == nil {
		return def
	}
	if v.kind != scalarNode || v.scalar == "" {
		d.fail(v.line, "%q must be a number", key)
		return 0
	}
	f, err := strconv.ParseFloat(v.scalar, 64)
	if err != nil {
		d.fail(v.line, "%q must be a number, got %q", key, v.scalar)
	}
	return f
}

func (d *dec) boolField(n *node, key string, def bool) bool {
	v := d.val(n, key)
	if v == nil {
		return def
	}
	if v.scalar != "true" && v.scalar != "false" {
		d.fail(v.line, "%q must be true or false, got %q", key, v.scalar)
	}
	return v.scalar == "true"
}

// optFloat returns a pointer for presence-sensitive bounds.
func (d *dec) optFloat(n *node, key string) *float64 {
	if d.val(n, key) == nil {
		return nil
	}
	f := d.floatField(n, key, 0)
	return &f
}

func (d *dec) strList(n *node, key string) []string {
	v := d.val(n, key)
	if v == nil {
		return nil
	}
	if v.kind != seqNode {
		d.fail(v.line, "%q must be a list", key)
		return nil
	}
	var out []string
	for _, item := range v.items {
		if item.kind != scalarNode {
			d.fail(item.line, "%q entries must be scalars", key)
		}
		out = append(out, item.scalar)
	}
	return out
}

// list returns the key's items, requiring a sequence.
func (d *dec) list(n *node, key string) []*node {
	v := d.val(n, key)
	if v == nil {
		return nil
	}
	if v.kind != seqNode {
		d.fail(v.line, "%s must be a list", key)
		return nil
	}
	return v.items
}

// seed decodes a digest-pin key.
func (d *dec) seed(n *node, k, what string) uint64 {
	seed, err := strconv.ParseUint(k, 10, 64)
	if err != nil {
		d.fail(n.keyLine[k], "%s key must be a seed, got %q", what, k)
	}
	return seed
}

// digest checks a 16-hex-char pin.
func (d *dec) digest(v *node, format string, args ...any) string {
	if v.kind != scalarNode || len(v.scalar) != 16 {
		d.fail(v.line, format, args...)
	}
	return v.scalar
}

func (d *dec) scenario(root *node) *Scenario {
	sc := &Scenario{}
	if !d.isMap(root, "scenario") {
		return sc
	}
	d.checkKeys(root, "scenario",
		"name", "description", "duration_ms", "seeds", "ci", "digests", "output_digests", "fleet", "arrivals",
		"events", "assertions")
	sc.Name = d.str(root, "name")
	sc.Description = d.str(root, "description")
	sc.DurationMS = d.int64Field(root, "duration_ms", 0)
	sc.CI = d.boolField(root, "ci", false)
	for _, s := range d.strList(root, "seeds") {
		u, err := strconv.ParseUint(s, 10, 64)
		if err != nil || u == 0 {
			d.fail(root.vals["seeds"].line, "seeds must be positive integers, got %q", s)
		}
		sc.Seeds = append(sc.Seeds, u)
	}
	if len(sc.Seeds) == 0 {
		sc.Seeds = []uint64{1}
	}
	if dg := d.val(root, "digests"); dg != nil && d.isMap(dg, "digests") {
		sc.Digests = map[uint64]string{}
		for _, k := range dg.keys {
			seed := d.seed(dg, k, "digest")
			sc.Digests[seed] = d.digest(dg.vals[k], "digest for seed %s must be 16 hex chars", k)
		}
	}
	if od := d.val(root, "output_digests"); od != nil && d.isMap(od, "output_digests") {
		sc.OutputDigests = map[uint64]map[string]string{}
		for _, k := range od.keys {
			seed, per := d.seed(od, k, "output_digests"), od.vals[k]
			if !d.isMap(per, "output_digests seed "+k) {
				break
			}
			byGuest := map[string]string{}
			for _, g := range per.keys {
				byGuest[g] = d.digest(per.vals[g], "output digest for guest %q under seed %s must be 16 hex chars", g, k)
			}
			sc.OutputDigests[seed] = byGuest
		}
	}
	fl := d.val(root, "fleet")
	if fl == nil {
		d.fail(root.line, "missing fleet section")
		return sc
	}
	sc.Fleet = d.fleet(fl)
	if ar := d.val(root, "arrivals"); ar != nil {
		sc.Arrivals = d.arrivals(ar)
		sc.Arrivals.Line = root.keyLine["arrivals"]
	}
	for _, item := range d.list(root, "events") {
		sc.Events = append(sc.Events, d.event(item))
	}
	for _, item := range d.list(root, "assertions") {
		sc.Assertions = append(sc.Assertions, d.assertion(item))
	}
	return sc
}

func (d *dec) fleet(n *node) Fleet {
	var f Fleet
	if !d.isMap(n, "fleet") {
		return f
	}
	d.checkKeys(n, "fleet",
		"machines", "capacity", "shards", "checkpoint_instr", "stall_detector",
		"planned_migration", "load_aware", "nodes", "guests")
	f.Machines = d.intField(n, "machines", 0)
	f.Capacity = d.intField(n, "capacity", 3)
	f.Shards = d.intField(n, "shards", 1)
	f.CheckpointInstr = d.int64Field(n, "checkpoint_instr", 0)
	f.StallDetector = d.boolField(n, "stall_detector", false)
	f.PlannedMigration = d.boolField(n, "planned_migration", false)
	f.LoadAware = d.boolField(n, "load_aware", false)
	f.Nodes = d.strList(n, "nodes")
	if d.val(n, "guests") == nil {
		d.fail(n.line, "fleet needs a guests list")
	}
	for _, item := range d.list(n, "guests") {
		f.Guests = append(f.Guests, d.guestSpec(item))
	}
	return f
}

func (d *dec) guestSpec(n *node) GuestSpec {
	g := GuestSpec{Line: n.line}
	if !d.isMap(n, "guest spec") {
		return g
	}
	d.checkKeys(n, "guest spec", "name", "count", "app", "traffic")
	if g.Name = d.str(n, "name"); g.Name == "" {
		d.fail(n.line, "guest spec needs a name")
	}
	g.Count = d.intField(n, "count", 1)
	app := d.val(n, "app")
	if app == nil {
		d.fail(n.line, "guest %q needs an app", g.Name)
		return g
	}
	g.App = d.appSpec(app)
	if tr := d.val(n, "traffic"); tr != nil {
		g.Traffic = d.trafficSpec(tr)
	}
	return g
}

func (d *dec) appSpec(n *node) AppSpec {
	var a AppSpec
	if !d.isMap(n, "app") {
		return a
	}
	d.checkKeys(n, "app", "kind", "period_ms", "compute", "disk_kb", "sink", "transport")
	switch a.Kind = d.str(n, "kind"); a.Kind {
	case "beacon", "fileserver", "probe":
	case "tenant":
		// The tenant's shape is fixed; only its sink is configurable.
		d.checkKeys(n, "tenant app", "kind", "sink")
		a.Sink = d.str(n, "sink")
		return a
	default:
		d.fail(n.line, "unknown app kind %q (beacon, fileserver, probe, tenant)", a.Kind)
	}
	a.PeriodMS = d.floatField(n, "period_ms", 5)
	a.Compute = d.int64Field(n, "compute", 500_000)
	a.DiskKB = d.intField(n, "disk_kb", 0)
	a.Sink = d.str(n, "sink")
	if a.Transport = d.str(n, "transport"); a.Transport == "" {
		a.Transport = "tcp"
	}
	if a.Transport != "tcp" && a.Transport != "udp" {
		d.fail(n.keyLine["transport"], "unknown transport %q (tcp, udp)", a.Transport)
	}
	return a
}

func (d *dec) trafficSpec(n *node) TrafficSpec {
	var t TrafficSpec
	if !d.isMap(n, "traffic") {
		return t
	}
	d.checkKeys(n, "traffic",
		"kind", "period_ms", "from", "size_kb", "constant", "start_ms", "stop_ms")
	switch t.Kind = d.str(n, "kind"); t.Kind {
	case "", "pings", "probe-stream", "downloads":
	default:
		d.fail(n.line, "unknown traffic kind %q (pings, probe-stream, downloads)", t.Kind)
	}
	t.PeriodMS = d.floatField(n, "period_ms", 20)
	t.From = d.str(n, "from")
	t.SizeKB = d.intField(n, "size_kb", 64)
	t.Constant = d.boolField(n, "constant", false)
	t.StartMS = d.int64Field(n, "start_ms", 0)
	t.StopMS = d.int64Field(n, "stop_ms", 0)
	return t
}

func (d *dec) arrivals(n *node) *Arrivals {
	a := &Arrivals{}
	if !d.isMap(n, "arrivals") {
		return a
	}
	d.checkKeys(n, "arrivals",
		"guest", "rate", "lifetime_ms", "ping_ms", "from", "failures", "drains", "crashes")
	a.Guest = d.str(n, "guest")
	a.Rate = d.floatField(n, "rate", 2.5)
	a.LifetimeMS = d.floatField(n, "lifetime_ms", 8000)
	a.PingMS = d.floatField(n, "ping_ms", 250)
	if a.From = d.str(n, "from"); a.From == "" {
		a.From = a.Guest + "-client"
	}
	a.Failures = d.intField(n, "failures", 0)
	a.Drains = d.intField(n, "drains", 0)
	a.Crashes = d.intField(n, "crashes", 0)
	return a
}

// eventKeys lists each action's allowed keys beyond at_ms/action.
var eventKeys = map[string][]string{
	"admit":         {"guest", "count"},
	"saturate-disk": {"guest", "count"},
	"evict":         {"guest"},
	"kill-machine":  {"machine", "detected", "repair_after_ms"},
	"kill-replica":  {"guest", "slot"},
	"drain":         {"machine"},
	"undrain":       {"machine"},
	"migrate":       {"guest", "to"},
	"inject-loss":   {"from", "to", "prob", "duplex"},
	"partition":     {"from", "to", "duplex"},
	"heal":          {"from", "to", "duplex"},
}

func (d *dec) event(n *node) Event {
	ev := Event{Machine: -1, Line: n.line}
	if !d.isMap(n, "event") {
		return ev
	}
	if ev.AtMS = d.int64Field(n, "at_ms", -1); ev.AtMS < 0 {
		d.fail(n.line, "event needs at_ms")
	}
	ev.Action = d.str(n, "action")
	extra, ok := eventKeys[ev.Action]
	if !ok {
		d.fail(n.line, "unknown action %q", ev.Action)
	}
	d.checkKeys(n, ev.Action+" event", append([]string{"at_ms", "action"}, extra...)...)
	ev.Guest = d.str(n, "guest")
	ev.Count = d.intField(n, "count", 1)
	if m := d.val(n, "machine"); m != nil && m.scalar == "busiest" {
		ev.Busiest = true
	} else {
		ev.Machine = d.intField(n, "machine", -1)
	}
	ev.Detected = d.boolField(n, "detected", true)
	ev.RepairAfterMS = d.int64Field(n, "repair_after_ms", 0)
	ev.Slot = d.intField(n, "slot", 0)
	ev.To = d.str(n, "to")
	if ev.Action == "inject-loss" || ev.Action == "partition" || ev.Action == "heal" {
		ev.From = d.str(n, "from")
		ev.ToAddr, ev.To = ev.To, ""
	}
	ev.Prob = d.floatField(n, "prob", 0)
	ev.Duplex = d.boolField(n, "duplex", false)
	return ev
}

// assertKeys lists each check's allowed keys beyond check.
var assertKeys = map[string][]string{
	"lockstep":   {"guest", "strict"},
	"placement":  {},
	"coresident": {"guests", "min_shared"},
	"stats":      {"field", "min", "max"},
	"oplog":      {"op", "detected", "min", "max", "within_ms", "not_fired"},
	"metric":     {"name", "label", "min", "max"},
	"journal":    {"guest", "min_checkpoints"},
}

func (d *dec) assertion(n *node) Assertion {
	a := Assertion{Line: n.line}
	if !d.isMap(n, "assertion") {
		return a
	}
	a.Check = d.str(n, "check")
	extra, ok := assertKeys[a.Check]
	if !ok {
		d.fail(n.line, "unknown check %q", a.Check)
	}
	d.checkKeys(n, a.Check+" assertion", append([]string{"check"}, extra...)...)
	a.Guest = d.str(n, "guest")
	a.Guests = d.strList(n, "guests")
	a.Strict = d.boolField(n, "strict", false)
	a.Field = d.str(n, "field")
	a.Op = d.str(n, "op")
	if d.val(n, "detected") != nil {
		det := d.boolField(n, "detected", false)
		a.Detected = &det
	}
	a.WithinMS = d.int64Field(n, "within_ms", 0)
	a.Name = d.str(n, "name")
	a.Label = d.str(n, "label")
	a.Min = d.optFloat(n, "min")
	a.Max = d.optFloat(n, "max")
	a.NotFired = d.boolField(n, "not_fired", false)
	a.MinShared = d.intField(n, "min_shared", 1)
	a.MinCheckpoints = d.int64Field(n, "min_checkpoints", 1)
	return a
}
