// Command perfbench is the repository's served benchmark: each workload
// runs against the real serving stack in one process — internal/server on
// a loopback listener, over core.Sharded, over a filedev image — driven by
// internal/memclient connections whose every reply is checked. It prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output. See README.md.
//
//	bash perfbench/run.sh --workload hot-get --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"nemo/internal/cachelib"
)

// options configures one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	workdir   string // device image and span file
	geo       geometry
	conns     int
	depth     int
	setupReps int     // untraced runs set up this many times and report the median
	rate      float64 // offered req/s; 0 = the workload's
	spanCap   int
	// wrapEngine, when set, sits between the server and the engine (tests
	// inject faulty engines with it).
	wrapEngine func(cachelib.EngineV2) cachelib.EngineV2
}

func defaultOptions() options {
	return options{
		seconds:   10,
		workdir:   filepath.Join(".bench_build", "perfbench"),
		geo:       defaultGeometry,
		conns:     2,
		depth:     8,
		setupReps: 3,
		spanCap:   2 << 20,
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// openShare is the part of --seconds the traced run spends in its open-loop
// phase.
const openShare = 0.5

func main() {
	o := defaultOptions()
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload name (lookaside-zipf, hot-get, set-churn)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "measured seconds")
	flag.IntVar(&traced, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = traced == 1
	os.Exit(runMain(o, os.Stdout, os.Stderr))
}

// runMain runs once and prints the metadata line and the result line.
func runMain(o options, stdout, stderr io.Writer) int {
	res, meta, err := run(o)
	if meta != nil {
		line, _ := json.Marshal(map[string]any{"meta": meta})
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		var oe *oracleError
		if errors.As(err, &oe) {
			res.Correct, res.Metrics = false, map[string]metric{}
			line, _ := json.Marshal(res)
			fmt.Fprintln(stdout, string(line))
		}
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// hostMeta describes the host and the run.
func hostMeta(o options, w workload, rate float64) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+modified"
				}
			}
		}
	}
	return map[string]any{
		"workload":      w.name,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_revision":  rev,
		"offered_req_s": rate,
		"conns":         o.conns,
		"closed_depth":  o.depth,
		"device": fmt.Sprintf("filedev image, %d shards x %d data zones, %d pages/zone, %d B pages",
			o.geo.shards, o.geo.zonesPerShard, o.geo.pagesPerZone, o.geo.pageSize),
	}
}

// setUp builds and fills one stack and its generators.
func setUp(o options, w workload, ks *keySpace, tr *tracer) (*stack, []generator, error) {
	s, err := buildStack(o.geo, o.workdir, stackOptions{tr: tr, wrapEngine: o.wrapEngine})
	if err != nil {
		return nil, nil, err
	}
	gens := make([]generator, o.conns)
	for i := range gens {
		if gens[i], err = w.gen(ks, o.geo, o.seed, i); err != nil {
			s.close()
			return nil, nil, err
		}
	}
	if err = w.setup(s, ks, gens); err == nil {
		err = s.cache.Drain()
	}
	if err == nil && w.guard {
		err = s.checkSealedIndex(ks)
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, gens, nil
}

func run(o options) (result, map[string]any, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, nil, err
	}
	rate := o.rate
	if rate == 0 {
		rate = w.rate
	}
	meta := hostMeta(o, w, rate)
	ks := newKeySpace(o.seed, w.classes(), o.conns)
	var tr *tracer
	reps := o.setupReps
	if o.trace {
		tr, reps = newTracer(o.spanCap), 1
	}

	var s *stack
	var gens []generator
	var setupSecs []float64
	for i := 0; i < max(reps, 1); i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return result{}, meta, err
			}
		}
		t0 := time.Now()
		if s, gens, err = setUp(o, w, ks, tr); err != nil {
			return result{}, meta, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	meta["image_fs"] = s.fsType
	if err := s.serve(); err != nil {
		s.close()
		return result{}, meta, err
	}
	clients := make([]*client, o.conns)
	for i := range clients {
		if clients[i], err = dialClient(s.ln.Addr().String(), i, ks, gens[i], w.lookaside, w.keys(o.geo), tr); err != nil {
			for _, c := range clients[:i] {
				c.close()
			}
			s.shutdown()
			return result{}, meta, err
		}
	}
	var res result
	var stored uint64
	if o.trace {
		res, err = measureTraced(o, w, s, clients, rate, tr)
	} else {
		res, stored, err = measure(o, s, clients, setupSecs)
	}
	for _, c := range clients {
		c.close()
	}
	dev, serr := s.shutdown()
	if err == nil {
		err = serr
	}
	if err != nil {
		return res, meta, err
	}
	if !o.trace {
		// Device bytes from format to the final drain over the key+value
		// bytes of every accepted SET, the setup's included.
		res.Metrics["alwa"] = metric{Value: ratio(float64(dev.BytesWritten), float64(s.setupBytes.Load()+stored)), Unit: "ratio"}
	}
	return res, meta, nil
}
