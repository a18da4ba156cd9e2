package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// memSampler samples the process's resident set size while a timed phase
// runs. The median of the samples is far steadier from run to run than the
// peak, which depends on where garbage collection happened to fall.
type memSampler struct {
	stop, done chan struct{}
	rss        []float64 // MiB
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if rss, ok := residentMiB(); ok {
				m.rss = append(m.rss, rss)
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops sampling and returns the median resident set in MiB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return median(m.rss)
}

// residentMiB reads the resident set size from /proc/self/statm.
func residentMiB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}
