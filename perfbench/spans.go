package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/device"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kClient spanKind = iota // one client write batch, from send to its last reply
	kGetMany
	kGet
	kSetAsync
	kSet
	kSetMany
	kDelete
	kRead
	kAppend
	kReset
)

var kindNames = [...]string{
	kClient:   "client.batch",
	kGetMany:  "engine.getmany",
	kGet:      "engine.get",
	kSetAsync: "engine.setasync",
	kSet:      "engine.set",
	kSetMany:  "engine.setmany",
	kDelete:   "engine.delete",
	kRead:     "device.read",
	kAppend:   "device.append",
	kReset:    "device.reset",
}

func (k spanKind) isEngine() bool { return k >= kGetMany && k <= kDelete }
func (k spanKind) isDevice() bool { return k >= kRead }

// span is one timed call at a layer boundary. n is the keys (engine) or
// pages (device) it covered; aux is the connection (client) or the shards
// touched (engine); batch is the client batch id within its connection.
type span struct {
	start, end int64
	batch      uint32
	n          uint16
	aux        uint8
	kind       spanKind
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory while on. The buffer is allocated once, up
// front, so recording adds no garbage to the runtime metrics it sits next
// to; spans past its capacity are counted and dropped.
type tracer struct {
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// tracedEngine times every call the server makes into the engine.
type tracedEngine struct {
	cachelib.EngineV2
	shardOf func([]byte) int
	tr      *tracer
}

func (e *tracedEngine) record(kind spanKind, start int64, keys ...[]byte) {
	end := nowNs()
	var shards uint64
	for _, k := range keys {
		shards |= 1 << (uint(e.shardOf(k)) % 64)
	}
	e.tr.add(span{kind: kind, start: start, end: end, n: uint16(len(keys)), aux: uint8(bits.OnesCount64(shards))})
}

func (e *tracedEngine) GetMany(keys [][]byte) ([][]byte, []bool) {
	if !e.tr.on.Load() {
		return e.EngineV2.GetMany(keys)
	}
	start := nowNs()
	v, h := e.EngineV2.GetMany(keys)
	e.record(kGetMany, start, keys...)
	return v, h
}

func (e *tracedEngine) Get(key []byte) ([]byte, bool) {
	if !e.tr.on.Load() {
		return e.EngineV2.Get(key)
	}
	start := nowNs()
	v, h := e.EngineV2.Get(key)
	e.record(kGet, start, key)
	return v, h
}

func (e *tracedEngine) SetMany(keys, values [][]byte) error {
	if !e.tr.on.Load() {
		return e.EngineV2.SetMany(keys, values)
	}
	start := nowNs()
	err := e.EngineV2.SetMany(keys, values)
	e.record(kSetMany, start, keys...)
	return err
}

func (e *tracedEngine) SetAsync(key, value []byte) error {
	if !e.tr.on.Load() {
		return e.EngineV2.SetAsync(key, value)
	}
	start := nowNs()
	err := e.EngineV2.SetAsync(key, value)
	e.record(kSetAsync, start, key)
	return err
}

func (e *tracedEngine) Set(key, value []byte) error {
	if !e.tr.on.Load() {
		return e.EngineV2.Set(key, value)
	}
	start := nowNs()
	err := e.EngineV2.Set(key, value)
	e.record(kSet, start, key)
	return err
}

func (e *tracedEngine) Delete(key []byte) error {
	if !e.tr.on.Load() {
		return e.EngineV2.Delete(key)
	}
	start := nowNs()
	err := e.EngineV2.Delete(key)
	e.record(kDelete, start, key)
	return err
}

// tracedDevice times every I/O the engine issues to the device.
type tracedDevice struct {
	device.Device
	tr *tracer
}

func (d *tracedDevice) io(kind spanKind, start int64, pages int) {
	d.tr.add(span{kind: kind, start: start, end: nowNs(), n: uint16(min(pages, 1<<16-1))})
}

func (d *tracedDevice) AppendPage(zone int, data []byte) (int, time.Duration, error) {
	if !d.tr.on.Load() {
		return d.Device.AppendPage(zone, data)
	}
	start := nowNs()
	p, done, err := d.Device.AppendPage(zone, data)
	d.io(kAppend, start, 1)
	return p, done, err
}

func (d *tracedDevice) Append(zone int, data []byte) (int, time.Duration, error) {
	if !d.tr.on.Load() {
		return d.Device.Append(zone, data)
	}
	start := nowNs()
	p, done, err := d.Device.Append(zone, data)
	d.io(kAppend, start, (len(data)+d.PageSize()-1)/d.PageSize())
	return p, done, err
}

func (d *tracedDevice) ReadPage(page int, dst []byte) (time.Duration, error) {
	if !d.tr.on.Load() {
		return d.Device.ReadPage(page, dst)
	}
	start := nowNs()
	done, err := d.Device.ReadPage(page, dst)
	d.io(kRead, start, 1)
	return done, err
}

func (d *tracedDevice) ReadPages(pages []int, dst [][]byte) (time.Duration, error) {
	if !d.tr.on.Load() {
		return d.Device.ReadPages(pages, dst)
	}
	start := nowNs()
	done, err := d.Device.ReadPages(pages, dst)
	d.io(kRead, start, len(pages))
	return done, err
}

func (d *tracedDevice) ResetZone(zone int) (time.Duration, error) {
	if !d.tr.on.Load() {
		return d.Device.ResetZone(zone)
	}
	start := nowNs()
	done, err := d.Device.ResetZone(zone)
	d.io(kReset, start, 0)
	return done, err
}

// interval is a half-open [lo, hi) stretch of time in ns.
type interval struct{ lo, hi int64 }

// union merges the spans selected by keep into disjoint sorted intervals.
func union(spans []span, keep func(spanKind) bool) []interval {
	var iv []interval
	for _, s := range spans {
		if keep(s.kind) {
			iv = append(iv, interval{s.start, s.end})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := iv[:0]
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, x.hi)
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.hi - x.lo
	}
	return n
}

// overlap returns the time two disjoint sorted interval sets share.
func overlap(a, b []interval) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// causes assigns each span the index of the one span of a parent layer that
// encloses it, or -1 when none or several do: engine spans' parents are
// client batches, device spans' parents are engine spans.
func causes(spans []span) []int {
	parentsOf := func(keep func(spanKind) bool) []int {
		var idx []int
		for i, s := range spans {
			if keep(s.kind) {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
		return idx
	}
	clients := parentsOf(func(k spanKind) bool { return k == kClient })
	engines := parentsOf(spanKind.isEngine)
	longest := func(idx []int) int64 {
		var m int64
		for _, i := range idx {
			m = max(m, spans[i].dur())
		}
		return m
	}
	maxClient, maxEngine := longest(clients), longest(engines)
	enclosing := func(s span, parents []int, maxDur int64) int {
		// Parents starting after s cannot enclose it; walk back from the
		// last one starting at or before s while a parent could still
		// reach past s's end.
		k := sort.Search(len(parents), func(i int) bool { return spans[parents[i]].start > s.start }) - 1
		found := -1
		for ; k >= 0 && spans[parents[k]].start >= s.start-maxDur; k-- {
			if p := spans[parents[k]]; p.end >= s.end {
				if found >= 0 {
					return -1
				}
				found = parents[k]
			}
		}
		return found
	}
	out := make([]int, len(spans))
	for i, s := range spans {
		switch {
		case s.kind.isEngine():
			out[i] = enclosing(s, clients, maxClient)
		case s.kind.isDevice():
			out[i] = enclosing(s, engines, maxEngine)
		default:
			out[i] = -1
		}
	}
	return out
}

// writeSpans writes the spans as CSV: id, name, start and end in ns since
// the run began, cause (the enclosing span's id or -1), and for client
// batches the (conn, batch) id.
func writeSpans(path string, spans []span) error {
	cause := causes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,cause,conn,batch,n")
	for i, s := range spans {
		conn, batch := -1, -1
		if s.kind == kClient {
			conn, batch = int(s.aux), int(s.batch)
		}
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d\n", i, kindNames[s.kind], s.start, s.end, cause[i], conn, batch, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
