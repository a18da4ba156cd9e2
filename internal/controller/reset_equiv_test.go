package controller

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/mapping"
	"repro/internal/probe"
)

// TestResetEquivalence is the regression guard for the "Reset forgot a
// field" bug class (a PR once dropped srThreshold on Reset): across
// randomized configurations and access patterns, a controller that ran a
// workload and was Reset must replay the workload bit-identically to a
// freshly constructed controller — same completion times, stats, busy
// cycles, latency histogram and probe event stream.
func TestResetEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	speed := speed400(t)
	bankBytes := speed.Geometry.BankBytes() * int64(speed.Geometry.Banks)

	type op struct {
		write   bool
		local   int64
		arrival int64
	}

	for trial := 0; trial < 25; trial++ {
		cfg := Config{
			Speed:                speed,
			Policy:               PagePolicy(rng.Intn(len(builtinPolicies))),
			PowerDown:            rng.Intn(2) == 0,
			RecordLatency:        rng.Intn(2) == 0,
			RefreshPostpone:      rng.Intn(5),
			PrechargeOnIdle:      rng.Intn(2) == 0,
			SelfRefreshThreshold: []int64{0, -1, 512 + rng.Int63n(4096)}[rng.Intn(3)],
			WriteBufferDepth:     rng.Intn(9),
			Channel:              rng.Intn(4),
		}
		var freshRec, resetRec *probe.Recorder
		if rng.Intn(2) == 0 {
			freshRec = &probe.Recorder{}
			resetRec = &probe.Recorder{}
		}
		var freshInj, resetInj *fault.Injector
		if rng.Intn(2) == 0 {
			plan := fault.Plan{
				Seed:          rng.Uint64(),
				ReadErrorRate: float64(rng.Intn(3)) * 0.02,
				StallRate:     float64(rng.Intn(3)) * 0.01,
				DerateAtCycle: []int64{0, 1 + rng.Int63n(5000)}[rng.Intn(2)],
			}
			var err error
			if freshInj, err = fault.NewInjector(plan, 1); err != nil {
				t.Fatal(err)
			}
			if resetInj, err = fault.NewInjector(plan, 1); err != nil {
				t.Fatal(err)
			}
		}

		ops := make([]op, 400)
		arrival := int64(0)
		for i := range ops {
			// Occasional long gaps exercise power-down and self-refresh.
			switch rng.Intn(10) {
			case 0:
				arrival += speed.REFI * (1 + rng.Int63n(6))
			case 1, 2:
				arrival += rng.Int63n(200)
			}
			ops[i] = op{
				write:   rng.Intn(2) == 0,
				local:   rng.Int63n(bankBytes) &^ 15,
				arrival: arrival,
			}
		}

		run := func(c *Controller, inj *fault.ChannelInjector) ([]int64, int64) {
			var ends []int64
			for i, o := range ops {
				// Exercise the policy's stream mapping (the partition table
				// is Controller state the replay must not leak across Reset).
				c.MapStream(i%5, mapping.Location{Bank: i % speed.Geometry.Banks})
				end := c.AccessAddr(o.write, o.local, o.arrival)
				if inj != nil && !o.write {
					// Mirror the channel layer's ECC retry re-issue so the
					// fault stream advances like a real run.
					if retries, _ := inj.ReadOutcome(); retries > 0 {
						for a := 0; a < retries; a++ {
							end = c.AccessAddr(false, o.local, end+inj.RetryBackoff(a))
						}
					}
				}
				ends = append(ends, end)
			}
			return ends, c.Flush()
		}

		freshCfg := cfg
		if freshRec != nil {
			freshCfg.Probe = freshRec
		}
		if freshInj != nil {
			freshCfg.Faults = freshInj.Channel(0)
		}
		fresh := newCtl(t, freshCfg)
		var freshChInj *fault.ChannelInjector
		if freshInj != nil {
			freshChInj = freshInj.Channel(0)
		}
		wantEnds, wantFlush := run(fresh, freshChInj)

		resetCfg := cfg
		if resetRec != nil {
			resetCfg.Probe = resetRec
		}
		var resetChInj *fault.ChannelInjector
		if resetInj != nil {
			resetCfg.Faults = resetInj.Channel(0)
			resetChInj = resetInj.Channel(0)
		}
		ctl := newCtl(t, resetCfg)
		run(ctl, resetChInj) // dirty the controller
		ctl.Reset()
		if resetInj != nil {
			resetInj.Reset()
		}
		if resetRec != nil {
			resetRec.Events = resetRec.Events[:0]
		}
		gotEnds, gotFlush := run(ctl, resetChInj)

		if !reflect.DeepEqual(gotEnds, wantEnds) {
			for i := range wantEnds {
				if gotEnds[i] != wantEnds[i] {
					t.Fatalf("trial %d (cfg %+v): op %d completed at %d after Reset, fresh at %d",
						trial, cfg, i, gotEnds[i], wantEnds[i])
				}
			}
		}
		if gotFlush != wantFlush {
			t.Errorf("trial %d: flush %d after Reset, fresh %d", trial, gotFlush, wantFlush)
		}
		if got, want := ctl.Stats(), fresh.Stats(); got != want {
			t.Errorf("trial %d (cfg %+v): stats diverged after Reset:\nreset: %+v\nfresh: %+v",
				trial, cfg, got, want)
		}
		if got, want := ctl.BusyCycles(), fresh.BusyCycles(); got != want {
			t.Errorf("trial %d: busy cycles %d after Reset, fresh %d", trial, got, want)
		}
		if cfg.RecordLatency && !reflect.DeepEqual(ctl.Latency(), fresh.Latency()) {
			t.Errorf("trial %d: latency histograms diverged", trial)
		}
		if freshRec != nil && !reflect.DeepEqual(resetRec.Events, freshRec.Events) {
			t.Errorf("trial %d: probe event streams diverged after Reset (%d vs %d events)",
				trial, len(resetRec.Events), len(freshRec.Events))
		}
	}
}

// fieldValue reads field i of a struct value, reaching through the
// unexported barrier so the test can compare and print internal state.
func fieldValue(v reflect.Value, i int) interface{} {
	f := v.Field(i)
	if f.CanInterface() {
		return f.Interface()
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// TestResetFieldEquivalence walks every Controller field by reflection and
// requires a Reset controller to be structurally identical to a freshly
// constructed one. Unlike the behavioral replay above — which only notices
// a stale field if some workload happens to read it — this fails by field
// name the moment a field is added to Controller but left out of Reset.
func TestResetFieldEquivalence(t *testing.T) {
	speed := speed400(t)
	base := Config{Speed: speed, PowerDown: true}

	closed := base
	closed.Policy = ClosedPage
	closed.WriteBufferDepth = 4

	tuned := base
	tuned.RefreshPostpone = 6
	tuned.PrechargeOnIdle = true
	tuned.RecordLatency = true
	tuned.SelfRefreshThreshold = 2048
	tuned.Channel = 3
	tuned.Probe = &probe.Recorder{}

	frfcfs := base
	frfcfs.Policy = FRFCFS

	partition := base
	partition.Policy = BankPartition

	for name, cfg := range map[string]Config{
		"baseline": base, "closed-page+wbuf": closed, "tuned+probe": tuned,
		"frfcfs": frfcfs, "bank-partition": partition,
	} {
		t.Run(name, func(t *testing.T) {
			ctl := newCtl(t, cfg)
			// Dirty every subsystem: row state, transfer history, the ACT
			// window, refresh debt, the write buffer, power-state residency,
			// stats, the latency histogram and the event clock.
			var end int64
			for i := int64(0); i < 300; i++ {
				arrival := end
				if i%23 == 0 {
					arrival += speed.REFI * 3 // power-down / self-refresh / debt
				}
				// Dirty the policy's stream map too (partGroup/partNext for
				// bank partitioning; a no-op for every other policy).
				ctl.MapStream(int(i%7), mapping.Location{Bank: int(i) % speed.Geometry.Banks})
				end = ctl.AccessAddr(i%3 == 0, (i*176)&^15, arrival)
			}
			ctl.Flush()
			ctl.Reset()

			fresh := newCtl(t, cfg)
			got := reflect.ValueOf(ctl).Elem()
			want := reflect.ValueOf(fresh).Elem()
			for i := 0; i < got.NumField(); i++ {
				g, w := fieldValue(got, i), fieldValue(want, i)
				if !reflect.DeepEqual(g, w) {
					t.Errorf("field %s survived Reset: %+v, fresh controller has %+v",
						got.Type().Field(i).Name, g, w)
				}
			}
		})
	}
}

// TestCopyStateFieldEquivalence walks every Controller and ReorderQueue
// field by reflection and requires CopyStateFrom to reproduce each one
// from the source, except the identity fields the destination keeps. A
// field added to either struct later is then copied by construction or
// named here; it cannot silently stay behind when a channel forks from its
// class leader. Copied slices must not share the source's backing arrays,
// or the two channels would step on each other's state.
func TestCopyStateFieldEquivalence(t *testing.T) {
	speed := speed400(t)
	ctlIdentity := map[string]bool{"cfg": true, "probe": true, "chID": true}
	queueIdentity := map[string]bool{"ctl": true}
	for _, pol := range []PagePolicy{OpenPage, ClosedPage, FRFCFS, BankPartition} {
		t.Run(pol.String(), func(t *testing.T) {
			base := Config{Speed: speed, Policy: pol, PowerDown: true, RecordLatency: true,
				WriteBufferDepth: 8, RefreshPostpone: 2}
			srcCfg, dstCfg := base, base
			srcCfg.Channel = 2
			dstCfg.Channel = 5
			dstCfg.Probe = &probe.Recorder{}

			// Dirty both sides, differently, and leave writes posted and
			// runs pending in the window so no slice is empty.
			dirty := func(ctl *Controller, seed int64) *ReorderQueue {
				q := NewReorderQueue(ctl, 8)
				var end int64
				for i := int64(0); i < 200+seed; i++ {
					arrival := end
					if i%37 == 0 {
						arrival += speed.REFI * 2
					}
					loc := ctl.MapStream(int((i+seed)%5), ctl.Decode((i*208+seed*64)&^15))
					end = q.AccessRow(i%4 == 0, loc, 1+int(i%3), arrival)
				}
				return q
			}
			src := newCtl(t, srcCfg)
			srcQ := dirty(src, 0)
			dst := newCtl(t, dstCfg)
			dstQ := dirty(dst, 7)
			if len(src.wbuf) == 0 || len(src.partGroup) == 0 && pol == BankPartition || len(srcQ.pending) == 0 {
				t.Fatalf("source not dirty enough: wbuf %d, partGroup %d, pending %d",
					len(src.wbuf), len(src.partGroup), len(srcQ.pending))
			}
			before, beforeQ := *dst, *dstQ
			dst.CopyStateFrom(src)
			dstQ.CopyStateFrom(srcQ)
			checkCopy(t, reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(),
				reflect.ValueOf(&before).Elem(), ctlIdentity)
			checkCopy(t, reflect.ValueOf(dstQ).Elem(), reflect.ValueOf(srcQ).Elem(),
				reflect.ValueOf(&beforeQ).Elem(), queueIdentity)

			// The copy continues exactly like the source.
			for i := int64(0); i < 100; i++ {
				loc := src.Decode((i * 4096) &^ 15)
				if a, b := srcQ.AccessRow(false, loc, 3, i*50), dstQ.AccessRow(false, loc, 3, i*50); a != b {
					t.Fatalf("op %d: copy completed at %d, source at %d", i, b, a)
				}
			}
			if a, b := srcQ.Flush(), dstQ.Flush(); a != b || src.Stats() != dst.Stats() ||
				!reflect.DeepEqual(src.Latency(), dst.Latency()) {
				t.Errorf("copy diverged from the source: flush %d vs %d, stats %+v vs %+v", b, a, dst.Stats(), src.Stats())
			}

			// A workload leaves some fields equal on both sides (a flag
			// never set, a counter still zero), so a field the copy missed
			// could pass above. Give every scalar of the source's state a
			// value of its own, then copy again.
			rng := rand.New(rand.NewSource(int64(pol) + 1))
			scramble(reflect.ValueOf(src).Elem(), ctlIdentity, rng)
			scramble(reflect.ValueOf(srcQ).Elem(), queueIdentity, rng)
			before, beforeQ = *dst, *dstQ
			dst.CopyStateFrom(src)
			dstQ.CopyStateFrom(srcQ)
			checkCopy(t, reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(),
				reflect.ValueOf(&before).Elem(), ctlIdentity)
			checkCopy(t, reflect.ValueOf(dstQ).Elem(), reflect.ValueOf(srcQ).Elem(),
				reflect.ValueOf(&beforeQ).Elem(), queueIdentity)
		})
	}
}

// scramble overwrites every integer and bool reachable through the
// struct's fields (nested structs, arrays and slice elements), except the
// named top-level fields, with random values. Interfaces and pointers are
// left alone.
func scramble(v reflect.Value, skip map[string]bool, rng *rand.Rand) {
	for i := 0; i < v.NumField(); i++ {
		if !skip[v.Type().Field(i).Name] {
			f := v.Field(i)
			scrambleValue(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), rng)
		}
	}
}

func scrambleValue(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1 + rng.Int63n(100))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1 + uint64(rng.Int63n(100)))
	case reflect.Struct:
		scramble(v, nil, rng)
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scrambleValue(v.Index(i), rng)
		}
	}
}

// checkCopy requires every field of got to equal src's, except the
// identity fields, which must equal keep's, and every non-empty slice
// field to own its backing array.
func checkCopy(t *testing.T, got, src, keep reflect.Value, identity map[string]bool) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		want := src
		if identity[name] {
			want = keep
		}
		g, w := fieldValue(got, i), fieldValue(want, i)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s.%s: copy has %+v, want %+v", got.Type().Name(), name, g, w)
		}
		if f := got.Field(i); f.Kind() == reflect.Slice && !identity[name] && f.Len() > 0 &&
			f.Pointer() == src.Field(i).Pointer() {
			t.Errorf("%s.%s: copy shares the source's backing array", got.Type().Name(), name)
		}
	}
}
