package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"nemo/internal/memclient"
	"nemo/internal/trace"
)

// epoch is the time origin of every timestamp the benchmark records.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// oracleError is a wrong reply: the run fails on it.
type oracleError struct{ msg string }

func (e *oracleError) Error() string { return "oracle: " + e.msg }

// backlogError means the offered load outran the stack, invalidating an
// open-loop run.
type backlogError struct{ msg string }

func (e *backlogError) Error() string { return "backlog: " + e.msg }

// pendingCap bounds the requests in flight on one connection; reaching it
// means the backlog grew and the run is invalid.
const pendingCap = 8192

// maxFlush bounds the requests one sender write carries.
const maxFlush = 64

// maxLate is the generator lateness past which an open-loop run is invalid.
const maxLate = int64(time.Second)

// entry is one sent request awaiting its reply.
type entry struct {
	req      request
	due      int64 // when it was due (open loop) or enqueued
	sent     int64 // when its batch's write began
	batch    uint32
	last     bool  // last request of its batch
	fill     bool  // a demand fill after a GET miss
	end      bool  // sentinel: the phase's sender is done
	mustMiss uint8 // keys whose last op on this connection was DELETE
}

// phase is one measured stretch of traffic.
type phase struct {
	rate   float64 // open loop: requests/s on this connection; 0 = closed loop
	depth  int     // closed loop: requests per batch
	dur    time.Duration
	record bool // keep per-request latency samples

	start, end int64 // set by runPhase
}

// sample is one request's latency and when it was due.
type sample struct{ at, lat int64 }

// phaseStats is one connection's tally over one phase.
type phaseStats struct {
	attempted, failed uint64
	getKeys, hitKeys  uint64
	storedBytes       uint64 // key+value bytes of sets answered STORED
	getLat, setLat    []sample
	late              []int64
	done              []int64 // closed loop: requests completed per windowNs since the phase start
	cpu               []int64 // closed loop: process CPU ns at each windowNs boundary (merged tallies only)
}

// countingConn counts the bytes the client moves over the wire.
type countingConn struct {
	net.Conn
	rd, wr atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rd.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wr.Add(uint64(n))
	return n, err
}

// client is one load-generating connection. An open-loop phase runs a
// sender and a receiver goroutine: the sender is the only writer (requests
// and demand fills), the receiver the only reader; requests pass between
// them in send order, which is also reply order. A closed-loop phase runs
// one goroutine that writes a batch and reads its replies in turn.
type client struct {
	id        int
	ks        *keySpace
	gen       generator
	lookaside bool
	nc        *countingConn
	w, r      *memclient.Client
	tr        *tracer

	deleted []uint64 // bitmap over ids: last op sent was DELETE
	batchID uint32

	pending chan entry
	fills   chan entry
	pacer   *pacer // open-loop phases only
	st      phaseStats

	// sender scratch
	keyBufs [maxKeys]trace.Request
	keyArgs [maxKeys][]byte
	valBuf  trace.Request
	// receiver scratch
	expBufs [maxKeys]trace.Request
	expVal  trace.Request
}

func dialClient(addr string, id int, ks *keySpace, gen generator, lookaside bool, idSpace uint64, tr *tracer) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: nc}
	c := &client{
		id: id, ks: ks, gen: gen, lookaside: lookaside, tr: tr,
		nc: cc, w: memclient.New(cc), r: memclient.New(cc),
	}
	if idSpace > 0 {
		c.deleted = make([]uint64, idSpace/64+1)
	}
	return c, nil
}

func (c *client) close() {
	c.w.Quit()
	c.nc.Close()
}

func (c *client) wireBytes() uint64 { return c.nc.rd.Load() + c.nc.wr.Load() }

func (c *client) isDeleted(id uint64) bool {
	return c.deleted != nil && id < uint64(len(c.deleted))*64 && c.deleted[id/64]&(1<<(id%64)) != 0
}

func (c *client) markDeleted(id uint64, del bool) {
	if c.deleted == nil || id >= uint64(len(c.deleted))*64 {
		return
	}
	if del {
		c.deleted[id/64] |= 1 << (id % 64)
	} else {
		c.deleted[id/64] &^= 1 << (id % 64)
	}
}

// queue writes e's request and records its effect on the delete oracle.
func (c *client) queue(e *entry) {
	r := &e.req
	switch r.op {
	case opGet:
		for i := 0; i < int(r.n); i++ {
			c.keyArgs[i] = c.ks.key(&c.keyBufs[i], r.keys[i])
			if c.isDeleted(r.keys[i].id) {
				e.mustMiss |= 1 << i
			}
		}
		c.w.QueueGet(false, c.keyArgs[:r.n]...)
	case opSet:
		ref := r.keys[0]
		c.w.QueueSet(c.ks.key(&c.keyBufs[0], ref), c.ks.value(&c.valBuf, ref), flagsOf(ref.id), false)
		c.markDeleted(ref.id, false)
	case opDelete:
		c.w.QueueDelete(c.ks.key(&c.keyBufs[0], r.keys[0]), false)
		c.markDeleted(r.keys[0].id, true)
	}
}

// flushBatch sends the batch as one write and hands its entries to the
// receiver.
func (c *client) flushBatch(batch []entry, ph phase) error {
	if len(batch) == 0 {
		return nil
	}
	if pendingCap-len(c.pending) < len(batch)+1 {
		return &backlogError{fmt.Sprintf("conn %d: %d requests in flight", c.id, len(c.pending))}
	}
	for i := range batch {
		c.queue(&batch[i])
	}
	sent := nowNs()
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.batchID++
	batch[len(batch)-1].last = true
	for i := range batch {
		e := &batch[i]
		e.sent, e.batch = sent, c.batchID
		if ph.record && !e.fill {
			c.st.late = append(c.st.late, sent-e.due)
		}
		c.pending <- *e
	}
	return nil
}

// takeFills moves queued demand fills into batch without blocking.
func (c *client) takeFills(batch []entry) []entry {
	for len(batch) < maxFlush {
		select {
		case f := <-c.fills:
			batch = append(batch, f)
		default:
			return batch
		}
	}
	return batch
}

// sendOpen paces requests at their due times: request i of the phase is
// due at start + i/rate, and each wake-up sends every request already due.
func (c *client) sendOpen(ph phase) error {
	start, end := ph.start, ph.end
	interval := 1e9 / ph.rate
	batch := make([]entry, 0, maxFlush)
	for i := 0; ; {
		due := start + int64(float64(i)*interval)
		now := nowNs()
		batch = c.takeFills(batch[:0])
		for due <= now && due < end && len(batch) < maxFlush {
			var e entry
			c.gen.next(&e.req)
			e.due = due
			batch = append(batch, e)
			i++
			due = start + int64(float64(i)*interval)
		}
		if err := c.flushBatch(batch, ph); err != nil {
			return err
		}
		if due >= end {
			return nil
		}
		if now-due > maxLate {
			return &backlogError{fmt.Sprintf("conn %d: generator %v behind schedule", c.id, time.Duration(now-due))}
		}
		if wait := due - nowNs(); wait > 0 && len(batch) < maxFlush {
			if err := c.pacer.arm(wait); err != nil {
				return err
			}
			// A fill queued since takeFills may have kicked the timer
			// before arm overwrote it; it must not wait for the next due.
			if len(c.fills) == 0 {
				if err := c.pacer.wait(); err != nil {
					return err
				}
			}
		}
	}
}

// pacer sleeps the open-loop sender on a timerfd read. The read parks the
// goroutine on the runtime's network poller, so the sender holds no
// processor while it waits (a blocking nanosleep would, and with every
// processor parked in one the poller goes unpolled for up to 10 ms), and
// epoll wakes it when the timer fires: the runtime's own timers round idle
// waits up to whole milliseconds, coarser than the latencies measured here.
// The receiver kicks the timer to send a demand fill without delay.
type pacer struct {
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("perfbench: timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// arm sets the timer to fire d ns from now, replacing any earlier setting.
func (p *pacer) arm(d int64) error {
	spec := [4]int64{0, 0, d / 1e9, d % 1e9} // it_interval, then it_value
	rc, err := p.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("perfbench: timerfd_settime: %w", errno)
	}
	return nil
}

// kick makes a pending or next wait return at once.
func (p *pacer) kick() error { return p.arm(1) }

// wait blocks until the timer fires.
func (p *pacer) wait() error {
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }

// runLockstep is one connection's closed loop: it writes a batch of
// ph.depth requests (the demand fills of the last batch first, new requests
// after them) and reads and checks every reply before the next batch, until
// end. Every batch reaches the server as one write of the same size, so
// the work per request does not drift with how replies and sends happen to
// interleave.
func (c *client) runLockstep(ph phase, end int64) error {
	batch := make([]entry, 0, maxFlush)
	var fills []entry
	for nowNs() < end {
		batch = append(batch[:0], fills...)
		fills = fills[:0]
		for len(batch) < ph.depth {
			e := entry{due: nowNs()}
			c.gen.next(&e.req)
			batch = append(batch, e)
		}
		for i := range batch {
			c.queue(&batch[i])
		}
		sent := nowNs()
		if err := c.w.Flush(); err != nil {
			return err
		}
		c.batchID++
		for i := range batch {
			e := &batch[i]
			e.sent, e.batch, e.last = sent, c.batchID, i == len(batch)-1
			fill, err := c.settle(e, ph)
			if err != nil {
				return err
			}
			if fill {
				fills = append(fills, c.fillOf(e))
			}
		}
	}
	return nil
}

// fillOf is the demand fill of e's look-aside miss.
func (c *client) fillOf(e *entry) entry {
	f := entry{fill: true, due: nowNs()}
	f.req.op, f.req.n, f.req.keys[0] = opSet, 1, e.req.keys[0]
	return f
}

// settle reads and checks e's reply and tallies it. fill asks for a demand
// fill of a look-aside miss. An error other than an oracleError leaves the
// connection unusable.
func (c *client) settle(e *entry, ph phase) (fill bool, err error) {
	c.st.attempted++
	ok, fill, err := c.reply(e)
	now := nowNs()
	if ph.rate == 0 && now < ph.end {
		w := int((now - ph.start) / windowNs)
		for len(c.st.done) <= w {
			c.st.done = append(c.st.done, 0)
		}
		c.st.done[w]++
	}
	lat := now - e.due
	if !ok {
		c.st.failed++
		lat = math.MaxInt64
	}
	if ph.record {
		switch e.req.op {
		case opGet:
			c.st.getLat = append(c.st.getLat, sample{e.due, lat})
		case opSet:
			c.st.setLat = append(c.st.setLat, sample{e.due, lat})
		}
	}
	if e.last && c.tr != nil && c.tr.on.Load() {
		c.tr.add(span{kind: kClient, start: e.sent, end: now, aux: uint8(c.id), batch: e.batch})
	}
	return fill, err
}

// receive reads replies in send order until the sender's sentinel, checking
// every reply against the oracle. After a connection error it keeps
// draining entries (without reading) so the sender never blocks.
func (c *client) receive(ph phase) error {
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	broken := false
	for {
		e := <-c.pending
		if e.end {
			return firstErr
		}
		if broken {
			continue
		}
		fill, err := c.settle(&e, ph)
		if err != nil {
			var oe *oracleError
			if !errors.As(err, &oe) {
				broken = true
			}
			fail(err)
		}
		if !fill {
			continue
		}
		select {
		case c.fills <- c.fillOf(&e):
			if err := c.pacer.kick(); err != nil {
				fail(err)
			}
		default:
			fail(&backlogError{fmt.Sprintf("conn %d: demand fills backed up", c.id)})
		}
	}
}

// reply consumes and checks one reply. ok is false for a failed or refused
// request; fill asks for a demand fill of a look-aside miss.
func (c *client) reply(e *entry) (ok, fill bool, err error) {
	r := &e.req
	switch r.op {
	case opGet:
		var exp [maxKeys][]byte
		for i := 0; i < int(r.n); i++ {
			exp[i] = c.ks.key(&c.expBufs[i], r.keys[i])
		}
		var hits uint8
		var verr error
		pos := 0
		_, rerr := c.r.ReadValues(func(v memclient.Value) {
			for pos < int(r.n) && !bytes.Equal(exp[pos], v.Key) {
				pos++
			}
			if pos == int(r.n) {
				verr = &oracleError{fmt.Sprintf("VALUE for unrequested or out-of-order key %q", v.Key)}
				return
			}
			ref := r.keys[pos]
			switch {
			case e.mustMiss&(1<<pos) != 0:
				verr = &oracleError{fmt.Sprintf("deleted key %q answered with a value", v.Key)}
			case v.Flags != flagsOf(ref.id):
				verr = &oracleError{fmt.Sprintf("key %q: flags %d, want %d", v.Key, v.Flags, flagsOf(ref.id))}
			case !bytes.Equal(v.Data, c.ks.value(&c.expVal, ref)):
				verr = &oracleError{fmt.Sprintf("key %q: value of %d bytes differs from FillValue(%d) of %d bytes",
					v.Key, len(v.Data), ref.id, ref.vlen)}
			}
			hits |= 1 << pos
			pos++
		})
		if rerr != nil {
			if isConnErr(rerr) {
				return false, false, rerr
			}
			return false, false, verr // an error reply: a failed request
		}
		c.st.getKeys += uint64(r.n)
		c.st.hitKeys += uint64(bits.OnesCount8(hits))
		return true, c.lookaside && hits == 0, verr
	case opSet:
		status, rerr := c.r.ReadStatus()
		if rerr != nil {
			return false, false, rerr
		}
		if status != "STORED" {
			return false, false, nil
		}
		c.st.storedBytes += uint64(c.ks.classes[r.keys[0].class].size) + uint64(r.keys[0].vlen)
		return true, false, nil
	default:
		status, rerr := c.r.ReadStatus()
		if rerr != nil {
			return false, false, rerr
		}
		return status == "DELETED", false, nil
	}
}

func isConnErr(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne)
}

// runPhase drives every client through one phase and returns the
// connections' merged tally and the phase's wall time.
func runPhase(clients []*client, ph phase) (phaseStats, int64, error) {
	ph.start = nowNs() + int64(time.Millisecond)
	ph.end = ph.start + int64(ph.dur)
	errs := make([]error, 2*len(clients))
	if ph.rate > 0 {
		for _, c := range clients {
			p, err := newPacer()
			if err != nil {
				for _, c := range clients {
					if c.pacer != nil {
						c.pacer.close()
						c.pacer = nil
					}
				}
				return phaseStats{}, 0, err
			}
			c.pacer = p
		}
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		c.st = phaseStats{}
		if ph.rate > 0 {
			c.pending = make(chan entry, pendingCap)
			c.fills = make(chan entry, pendingCap)
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				errs[2*i+1] = c.receive(ph)
			}(i, c)
		}
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			sleepUntil(ph.start)
			if ph.rate > 0 {
				errs[2*i] = c.sendOpen(ph)
				c.pending <- entry{end: true}
			} else {
				errs[2*i] = c.runLockstep(ph, ph.end)
			}
		}(i, c)
	}
	// The process's CPU time at each whole window boundary of a closed
	// loop, read by this goroutine while the clients run.
	var cpu []int64
	if ph.rate == 0 {
		for t := ph.start; t <= ph.end; t += windowNs {
			sleepUntil(t)
			cpu = append(cpu, cpuNs())
		}
	}
	wg.Wait()
	elapsed := nowNs() - ph.start
	sts := make([]phaseStats, len(clients))
	for i, c := range clients {
		if full := int(int64(ph.dur) / windowNs); len(c.st.done) > full {
			c.st.done = c.st.done[:max(full, 1)]
		}
		sts[i] = c.st
		if c.pacer != nil {
			c.pacer.close()
		}
		c.st, c.pending, c.fills, c.pacer = phaseStats{}, nil, nil, nil
	}
	m := merged(sts)
	m.cpu = cpu
	return m, elapsed, errors.Join(errs...)
}

func sleepUntil(t int64) {
	for now := nowNs(); now < t; now = nowNs() {
		time.Sleep(time.Duration(t - now))
	}
}
