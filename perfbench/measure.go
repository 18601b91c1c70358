package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmup is the unrecorded lead-in before the measured phases: the first
// second after setup carries one-off costs (first requests on fresh
// connections, collecting the setup's garbage) no later second has.
const warmup = time.Second

// closedPhase is a closed loop of o.seconds at o.depth requests per batch.
func closedPhase(o options) phase {
	return phase{depth: o.depth, dur: seconds(o.seconds)}
}

// openPhase is the traced run's open loop at the offered rate.
func openPhase(o options, rate float64) phase {
	return phase{rate: rate / float64(o.conns), dur: seconds(o.seconds * openShare), record: true}
}

// measure is the untraced run: a closed-loop warm-up, then a closed loop
// of o.seconds giving every end-to-end metric but alwa, which needs the
// final drain. It also returns the key+value bytes stored.
func measure(o options, s *stack, clients []*client, setupSecs []float64) (result, uint64, error) {
	warm := closedPhase(o)
	warm.dur = min(warmup, warm.dur)
	if _, _, err := runPhase(clients, warm); err != nil {
		return result{}, 0, err
	}
	cp, _, err := runPhase(clients, closedPhase(o))
	if err != nil {
		return result{}, 0, err
	}
	res := result{
		Correct:   true,
		Attempted: cp.attempted,
		Failed:    cp.failed,
		Metrics:   map[string]metric{},
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("cpu_us_per_req", "us", windowedCPU(cp.done, cp.cpu))
	put("hit_ratio", "ratio", ratio(float64(cp.hitKeys), float64(cp.getKeys)))
	put("success_ratio", "ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)))
	put("setup_s", "s", quartile(setupSecs, 0.5))
	// Heap after the measured phase, the harness's sample buffers dead by
	// now: what the server and engine hold. The second collection empties
	// the sync.Pools the first one only demotes.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("heap_mib", "MiB", float64(ms.HeapInuse)/(1<<20))
	return res, cp.storedBytes, nil
}

// tracedClosedShare is the part of the closed-loop phase the traced run
// spends in each of its two closed-loop phases: a saturated stack yields
// several spans per request, and a whole phase of them would not fit the
// span buffer.
const tracedClosedShare = 0.2

// measureTraced is the traced run: an untraced closed-loop phase as the
// overhead baseline, then the open- and closed-loop phases with every
// layer boundary recorded, reported as the per-layer metrics.
func measureTraced(o options, w workload, s *stack, clients []*client, rate float64, tr *tracer) (result, error) {
	openPh, closedPh := openPhase(o, rate), closedPhase(o)
	closedPh.dur = time.Duration(float64(closedPh.dur) * tracedClosedShare)
	warm := openPh
	warm.dur, warm.record = min(warmup, warm.dur), false
	if _, _, err := runPhase(clients, warm); err != nil {
		return result{}, err
	}
	bp, bel, err := runPhase(clients, closedPh)
	if err != nil {
		return result{}, err
	}
	peakUntraced := ratio(float64(bp.attempted), float64(bel)/1e9)

	before := snapshot(s, clients)
	tr.on.Store(true)
	op, oel, err := runPhase(clients, openPh)
	if err != nil {
		return result{}, err
	}
	cp, cel, err := runPhase(clients, closedPh)
	tr.on.Store(false)
	if err != nil {
		return result{}, err
	}
	if err := s.cache.Drain(); err != nil {
		return result{}, err
	}
	after := snapshot(s, clients)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res := result{Correct: true, Attempted: op.attempted + cp.attempted, Failed: op.failed + cp.failed}
	tr.mu.Lock()
	spans, dropped := tr.spans, tr.dropped
	tr.mu.Unlock()
	res.Metrics = layerMetrics(layerInputs{
		spans:        spans,
		wallNs:       oel + cel,
		before:       before,
		after:        after,
		open:         op,
		requests:     res.Attempted,
		peakTraced:   ratio(float64(cp.attempted), float64(cel)/1e9),
		peakUntraced: peakUntraced,
		heapObjects:  ms.HeapObjects,
	})
	if dropped > 0 {
		// The span-derived metrics then cover less than the counters do.
		fmt.Fprintf(os.Stderr, "perfbench: span buffer full, %d spans dropped\n", dropped)
	}
	if w.guard && res.Metrics["core.pbfg_lookups_per_get"].Value == 0 {
		return res, fmt.Errorf("perfbench: %s made no sealed-PBFG lookups", w.name)
	}
	path := filepath.Join(o.workdir, "spans-"+w.name+".csv")
	if err := writeSpans(path, spans); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return res, nil
}

// cpuNs is the process's user and system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
}
