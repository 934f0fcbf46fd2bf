package main

import (
	"encoding/binary"
	"errors"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// echoApp is the benchmark's echo guest: every period it computes and
// sends a record to the sink (until its virtual-time deadline, so all
// replicas quiesce identically before the end-of-run lockstep audit), and
// it echoes every inbound ping's payload back to the sender.
type echoApp struct {
	period   vtime.Virtual
	compute  int64
	deadline vtime.Virtual
	sink     netsim.Addr

	ticks, echoes int64
}

var (
	_ guest.App         = (*echoApp)(nil)
	_ guest.Snapshotter = (*echoApp)(nil)
)

func newEchoFactory(g EchoGuest, deadline sim.Time, sink netsim.Addr) func() guest.App {
	return func() guest.App {
		return &echoApp{
			period:   vtime.Virtual(g.Period),
			compute:  g.Compute,
			deadline: vtime.Virtual(deadline),
			sink:     sink,
		}
	}
}

func (a *echoApp) Boot(ctx guest.Ctx) { ctx.SetTimer(a.period, "tick") }

func (a *echoApp) OnTimer(ctx guest.Ctx, tag string) {
	if ctx.Clock().Now() >= a.deadline {
		return
	}
	a.ticks++
	ctx.Compute(a.compute)
	ctx.Send(a.sink, 128, a.ticks)
	ctx.SetTimer(a.period, "tick")
}

func (a *echoApp) OnPacket(ctx guest.Ctx, p guest.Payload) {
	a.echoes++
	ctx.Compute(20_000)
	ctx.Send(p.Src, 128, p.Data)
}

func (a *echoApp) OnDiskDone(guest.Ctx, guest.DiskDone) {}

func (a *echoApp) SnapshotAppend(buf []byte) []byte {
	buf = binary.AppendVarint(buf, a.ticks)
	return binary.AppendVarint(buf, a.echoes)
}

func (a *echoApp) RestoreSnapshot(data []byte) error {
	ticks, n := binary.Varint(data)
	if n <= 0 {
		return errors.New("echo snapshot: bad ticks varint")
	}
	echoes, m := binary.Varint(data[n:])
	if m <= 0 || n+m != len(data) {
		return errors.New("echo snapshot: bad echoes varint")
	}
	a.ticks, a.echoes = ticks, echoes
	return nil
}

// ping is a client ping's payload: the guest echoes it unchanged, so the
// reply carries its own send time.
type ping struct {
	id   int
	sent sim.Time
}
