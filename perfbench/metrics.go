package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/core"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the nearest-rank p-quantile of xs (sorted in place),
// in µs. Failed requests are recorded as math.MaxInt64 and so sit beyond
// every percentile below 1.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	i = min(max(i, 0), len(xs)-1)
	return float64(xs[i]) / 1e3
}

// The end-to-end CPU cost is taken per window of the closed loop and
// summarized by a quartile across windows. The 2-vCPU host loses CPU time
// to the hypervisor in bursts (measured as steal time), which moves a
// whole-run figure by how many disturbed windows the run happened to
// contain; the quartile reports the run's least disturbed windows, which
// every change to the code still moves.
const windowNs = int64(500 * time.Millisecond)

// windowedCPU is the closed loop's CPU cost: the process's CPU µs (user and
// system, client included) over the requests completed, per whole
// windowNs window, lower quartile across windows. cpu holds the CPU
// time at each window boundary. With steal-time accounting, CPU time
// excludes the time the hypervisor ran something else, so this figure
// tracks the code's own work where wall-clock rates track the host.
func windowedCPU(done, cpu []int64) float64 {
	var vals []float64
	for i, n := range done {
		if i+1 < len(cpu) && n > 0 {
			vals = append(vals, float64(cpu[i+1]-cpu[i])/1e3/float64(n))
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return quartile(vals, 0.25)
}

// quartile returns the nearest-rank q-quantile of xs (sorted in place).
func quartile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return xs[min(int(q*float64(len(xs))), len(xs)-1)]
}

// pooled is the p-quantile over every sample, in µs.
func pooled(xs []sample, p float64) float64 {
	lat := make([]int64, len(xs))
	for i, x := range xs {
		lat[i] = x.lat
	}
	return percentile(lat, p)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// merged sums the connections' tallies of one phase.
func merged(st []phaseStats) phaseStats {
	var m phaseStats
	for _, s := range st {
		m.attempted += s.attempted
		m.failed += s.failed
		m.getKeys += s.getKeys
		m.hitKeys += s.hitKeys
		m.storedBytes += s.storedBytes
		m.getLat = append(m.getLat, s.getLat...)
		m.setLat = append(m.setLat, s.setLat...)
		m.late = append(m.late, s.late...)
		for i, n := range s.done {
			if i == len(m.done) {
				m.done = append(m.done, 0)
			}
			m.done[i] += n
		}
	}
	return m
}

// counters is a snapshot of every public counter the per-layer metrics are
// differences of.
type counters struct {
	srv               map[string]uint64
	st                cachelib.Stats
	ex                core.NemoStats
	lookups, pbfgMiss uint64
	mallocs, pauseNs  uint64
	userNs, sysNs     int64
	wire              uint64
}

func snapshot(s *stack, clients []*client) counters {
	c := counters{srv: map[string]uint64{}, st: s.cache.Stats(), ex: s.cache.Extra()}
	for _, f := range s.srv.Fields() {
		c.srv[f.Name] = f.Value
	}
	for i := 0; i < s.cache.NumShards(); i++ {
		l, m, _ := s.cache.Shard(i).PBFGStats()
		c.lookups += l
		c.pbfgMiss += m
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.pauseNs = ms.Mallocs, ms.PauseTotalNs
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.userNs = syscall.TimevalToNsec(ru.Utime)
		c.sysNs = syscall.TimevalToNsec(ru.Stime)
	}
	for _, cl := range clients {
		c.wire += cl.wireBytes()
	}
	return c
}

// layerInputs is what the traced run hands the per-layer computation.
type layerInputs struct {
	spans         []span
	wallNs        int64 // measured phase time the spans cover
	before, after counters
	open          phaseStats // traced open-loop phase
	requests      uint64     // requests attempted in the traced phases
	peakTraced    float64
	peakUntraced  float64
	heapObjects   uint64
}

// durations returns the µs durations of the spans of one kind.
func durations(spans []span, kind spanKind) []int64 {
	var d []int64
	for _, s := range spans {
		if s.kind == kind {
			d = append(d, s.dur())
		}
	}
	return d
}

// layerMetrics computes every per-layer metric (see README.md for what each
// is predicted to move).
func layerMetrics(in layerInputs) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	b, a := in.before, in.after
	req := float64(in.requests)
	gets := float64(a.st.Gets - b.st.Gets)
	sets := float64(a.st.Sets - b.st.Sets)
	flushes := float64(a.ex.SGsFlushed - b.ex.SGsFlushed)
	secs := float64(in.wallNs) / 1e9

	// client
	put("client.late_p99_us", "us", percentile(in.open.late, 0.99))
	put("client.get_p50_us", "us", pooled(in.open.getLat, 0.50))
	put("client.get_p99_us", "us", pooled(in.open.getLat, 0.99))
	put("client.set_p50_us", "us", pooled(in.open.setLat, 0.50))
	put("client.set_p99_us", "us", pooled(in.open.setLat, 0.99))
	put("client.get_samples", "count", float64(len(in.open.getLat)))
	put("client.set_samples", "count", float64(len(in.open.setLat)))
	put("client.peak_ops_s", "1/s", in.peakUntraced)
	put("client.wire_bytes_per_req", "B/req", ratio(float64(a.wire-b.wire), req))

	// server: client-batch time with no engine call running
	clientU := union(in.spans, func(k spanKind) bool { return k == kClient })
	engineU := union(in.spans, spanKind.isEngine)
	deviceU := union(in.spans, spanKind.isDevice)
	put("server.self_us_per_req", "us", ratio(float64(length(clientU)-overlap(clientU, engineU))/1e3, req))
	var engineCalls, engineKeys float64
	for _, s := range in.spans {
		if s.kind.isEngine() {
			engineCalls++
			engineKeys += float64(s.n)
		}
	}
	put("server.reqs_per_engine_call", "ratio", ratio(req, engineCalls))
	put("server.errors", "count", float64(a.srv["protocol_errors"]+a.srv["server_errors"]-
		b.srv["protocol_errors"]-b.srv["server_errors"]))

	// engine
	getMany := durations(in.spans, kGetMany)
	var gmKeys, gmShards float64
	for _, s := range in.spans {
		if s.kind == kGetMany {
			gmKeys += float64(s.n)
			gmShards += float64(s.aux)
		}
	}
	put("engine.getmany.p50_us", "us", percentile(getMany, 0.50))
	put("engine.getmany.p99_us", "us", percentile(getMany, 0.99))
	put("engine.getmany.keys_per_call", "keys", ratio(gmKeys, float64(len(getMany))))
	put("engine.getmany.shards_per_call", "shards", ratio(gmShards, float64(len(getMany))))
	setAsync := durations(in.spans, kSetAsync)
	put("engine.setasync.p50_us", "us", percentile(setAsync, 0.50))
	put("engine.setasync.p99_us", "us", percentile(setAsync, 0.99))
	put("engine.delete.p99_us", "us", percentile(durations(in.spans, kDelete), 0.99))
	put("engine.self_us_per_key", "us", ratio(float64(length(engineU)-overlap(engineU, deviceU))/1e3, engineKeys))
	put("engine.busy_share", "ratio", ratio(float64(length(engineU)), float64(in.wallNs)))

	// core
	put("core.fill_rate", "ratio", ratio(a.ex.FillSum-b.ex.FillSum, flushes))
	newBytes := float64(a.ex.NewBytes - b.ex.NewBytes)
	put("core.paper_wa", "ratio", ratio(float64(a.ex.DataBytesWritten-b.ex.DataBytesWritten), newBytes))
	idx := float64(a.ex.IndexBytesWritten - b.ex.IndexBytesWritten)
	put("core.index_write_share", "ratio", ratio(idx, idx+float64(a.ex.DataBytesWritten-b.ex.DataBytesWritten)))
	put("core.writeback_per_new_byte", "ratio", ratio(float64(a.ex.WriteBackBytes-b.ex.WriteBackBytes), newBytes))
	put("core.evictions_per_set", "ratio", ratio(float64(a.st.Evictions-b.st.Evictions), sets))
	put("core.sacrificed_per_set", "ratio", ratio(float64(a.ex.Sacrificed-b.ex.Sacrificed), sets))
	put("core.flushes_per_s", "1/s", ratio(flushes, secs))
	put("core.pbfg_lookups_per_get", "ratio", ratio(float64(a.lookups-b.lookups), gets))
	put("core.pbfg_miss_ratio", "ratio", ratio(float64(a.pbfgMiss-b.pbfgMiss), float64(a.lookups-b.lookups)))
	put("core.false_positive_reads_per_get", "ratio", ratio(float64(a.ex.FalsePositiveReads-b.ex.FalsePositiveReads), gets))
	put("core.read_errors", "count", float64(a.st.ReadErrors-b.st.ReadErrors))
	put("core.write_errors", "count", float64(a.st.WriteErrors-b.st.WriteErrors))
	put("core.write_retries", "count", float64(a.st.WriteRetries-b.st.WriteRetries))

	// device
	reads := durations(in.spans, kRead)
	var readPages float64
	for _, s := range in.spans {
		if s.kind == kRead {
			readPages += float64(s.n)
		}
	}
	appends := durations(in.spans, kAppend)
	put("device.read.calls_per_get", "ratio", ratio(float64(len(reads)), gets))
	put("device.read.pages_per_get", "ratio", ratio(readPages, gets))
	put("device.read.p50_us", "us", percentile(reads, 0.50))
	put("device.read.p99_us", "us", percentile(reads, 0.99))
	put("device.append.calls_per_flush", "ratio", ratio(float64(len(appends)), flushes))
	put("device.append.p99_us", "us", percentile(appends, 0.99))
	put("device.reset.p99_us", "us", percentile(durations(in.spans, kReset), 0.99))
	fg := overlap(deviceU, engineU)
	put("device.fg_busy_share", "ratio", ratio(float64(fg), float64(length(deviceU))))
	put("device.bg_busy_s_per_s", "s/s", ratio(float64(length(deviceU)-fg)/1e9, secs))

	// runtime (the whole process: client, server, engine and device)
	cpu := float64(a.userNs-b.userNs) + float64(a.sysNs-b.sysNs)
	put("runtime.cpu_us_per_req", "us", ratio(cpu/1e3, req))
	put("runtime.sys_share", "ratio", ratio(float64(a.sysNs-b.sysNs), cpu))
	put("runtime.allocs_per_req", "ratio", ratio(float64(a.mallocs-b.mallocs), req))
	put("runtime.gc_pause_ms", "ms", float64(a.pauseNs-b.pauseNs)/1e6)
	put("runtime.heap_objects", "count", float64(in.heapObjects))
	put("trace.overhead", "ratio", ratio(in.peakTraced, in.peakUntraced))
	return m
}
