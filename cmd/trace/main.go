// Command trace works with memory transaction traces: dump the recording
// load model's stream for inspection, summarize a trace file, or replay one
// through a memory configuration.
//
// Usage:
//
//	trace -dump -format 720p30 -channels 2 -fraction 0.001 > frame.trace
//	trace -summary frame.trace
//	trace -run frame.trace -channels 2 -freq 400
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/load"
	"repro/internal/memsys"
	"repro/internal/probe"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/usecase"
	"repro/internal/video"
)

func init() { cli.Name = "trace" }

func main() {
	fs := flag.CommandLine
	var (
		dump    = flag.Bool("dump", false, "emit the load model's transaction trace to stdout")
		binary  = flag.Bool("binary", false, "use the compact binary format for -dump")
		run     = flag.String("run", "", "replay the given trace file through a memory configuration (-channels, -freq, -policy, -device and the observed-run flags apply)")
		summary = flag.String("summary", "", "summarize the given trace file")
	)
	pt := cli.PointFlags(fs, "720p30", "2")
	model := cli.ModelFlags(fs, "0.001", false)
	observed := cli.ObservedFlags(fs)
	flag.Parse()

	switch {
	case *dump:
		if err := dumpTrace(pt.Format, pt.Channels, model.Fraction, *binary); err != nil {
			cli.Fatal(err)
		}
	case *summary != "":
		if err := summarize(*summary); err != nil {
			cli.Fatal(err)
		}
	case *run != "":
		mc := core.PaperMemory(pt.Channels, units.Frequency(pt.FreqMHz)*units.MHz)
		mc.Policy = model.PagePolicy()
		mc.Device = model.Device
		if err := replay(*run, mc, observed); err != nil {
			cli.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func dumpTrace(format string, channels int, fraction float64, binary bool) error {
	prof, err := video.ProfileFor(format)
	if err != nil {
		return err
	}
	l, err := usecase.New(prof, usecase.DefaultParams())
	if err != nil {
		return err
	}
	gen, err := load.New(l, channels, dram.DefaultGeometry(), load.Config{})
	if err != nil {
		return err
	}
	src, err := gen.Frame(fraction)
	if err != nil {
		return err
	}
	reqs := trace.Record(src)
	if binary {
		return trace.WriteBinary(os.Stdout, reqs)
	}
	fmt.Printf("# %s recording, %d channels, fraction %g: %d transactions\n",
		format, channels, fraction, len(reqs))
	return trace.Write(os.Stdout, reqs)
}

func summarize(path string) error {
	reqs, err := loadTrace(path)
	if err != nil {
		return err
	}
	s := trace.Summarize(reqs)
	fmt.Printf("transactions: %d (%d reads, %d writes)\n", s.Transactions, s.Reads, s.Writes)
	fmt.Printf("payload:      %d bytes read, %d bytes written\n", s.BytesRead, s.BytesWritten)
	fmt.Printf("address span: [%d, %d)\n", s.MinAddr, s.MaxAddr)
	return nil
}

// replay runs the trace file at path through mc, observed as the
// observed-run flags ask.
func replay(path string, mc core.MemoryConfig, observed *cli.Observed) error {
	reqs, err := loadTrace(path)
	if err != nil {
		return err
	}
	if err := observed.Attach(&mc); err != nil {
		return err
	}
	start := time.Now()
	res, err := core.Replay(reqs, mc)
	if err != nil {
		return err
	}
	if err := observed.Verify("check:       every DRAM command satisfied the device timing constraints"); err != nil {
		return err
	}
	freqMHz := float64(mc.Freq) / float64(units.MHz)
	fmt.Printf("replayed %d transactions (%d bursts) on %d ch @ %g MHz\n",
		res.Transactions, res.Bursts, mc.Channels, freqMHz)
	fmt.Printf("makespan:    %v (%d cycles)\n", res.Time, res.Cycles)
	fmt.Printf("bandwidth:   %.3f GB/s payload (%.1f%% bus utilization)\n",
		res.Bandwidth().GBps(), res.BusUtilization()*100)
	fmt.Printf("activity:    %s\n", res.Totals())
	man := probe.NewManifest(cli.Name)
	man.Channels = mc.Channels
	man.FreqMHz = freqMHz
	man.SampleFraction = 1
	man.Workload = map[string]any{
		"trace_file": path, "transactions": res.Transactions, "bursts": res.Bursts,
	}
	return observed.Write(man, res.Cycles, time.Since(start))
}

// loadTrace reads a trace file in either format (binary detected by magic).
func loadTrace(path string) ([]memsys.Request, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= 8 && string(data[:8]) == "mcmtrc01" {
		return trace.ReadBinary(bytes.NewReader(data))
	}
	return trace.Read(bytes.NewReader(data))
}
