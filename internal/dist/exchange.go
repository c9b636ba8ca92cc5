package dist

import (
	"strconv"
	"time"

	"tessellate/internal/telemetry"
)

// exchanger runs a rank's per-region strip swap, in either of two
// modes, over one transport with one set of buffers and counters:
//
//   - synchronous: even/odd pairwise ordering, the caller blocks for
//     the whole exchange (the original semantics);
//   - overlapped: outgoing strips are packed synchronously (the wire
//     bytes must snapshot pre-region state, exactly what the sync path
//     sends), then one goroutine per neighbour drives the duplex
//     send/recv while the caller executes interior blocks; wait()
//     collects errors and unpacks the received strips before the
//     halo-dependent blocks run.
//
// Grid access is delegated to pack/unpack closures so the engine is
// dimension-agnostic: gx0 names the strip's first global dimension-0
// plane, and the closure moves the interior rows of the strip's planes,
// both parity buffers, between grid and buffer.
type exchanger struct {
	tr         Transport
	id, nranks int
	part       Partition
	h          int
	pack       func(gx0 int, buf []float64)
	unpack     func(gx0 int, buf []float64)

	// One staging buffer per direction and side, so both neighbour
	// swaps and both directions can be in flight at once.
	sendLo, sendHi []float64
	recvLo, recvHi []float64

	// Overlap bookkeeping: results of in-flight swaps. Stats are
	// accumulated only in wait()/swapSync (single-threaded) so the
	// public Rank counters they mirror stay race-free.
	done     chan swapResult
	inflight int
	loLive   bool // lo/hi swap launched this exchange (unpack on wait)
	hiLive   bool

	messages int
	floats   int64
}

type swapResult struct {
	peer   int
	floats int
	err    error
}

func newExchanger(tr Transport, id, nranks int, part Partition, h, stripLen int,
	pack, unpack func(gx0 int, buf []float64)) *exchanger {
	return &exchanger{
		tr: tr, id: id, nranks: nranks, part: part, h: h,
		pack: pack, unpack: unpack,
		sendLo: make([]float64, stripLen),
		sendHi: make([]float64, stripLen),
		recvLo: make([]float64, stripLen),
		recvHi: make([]float64, stripLen),
		done:   make(chan swapResult, 2),
	}
}

// neighbours yields the rank's neighbour list in deadlock-free parity
// order: even ranks handle the right side first, odd ranks the left,
// so every rendezvous pair agrees on who goes first.
func (e *exchanger) neighbours() []struct {
	peer  int
	right bool
} {
	order := []struct {
		peer  int
		right bool
	}{{e.id + 1, true}, {e.id - 1, false}}
	if e.id%2 == 1 {
		order[0], order[1] = order[1], order[0]
	}
	var out []struct {
		peer  int
		right bool
	}
	for _, o := range order {
		if o.peer >= 0 && o.peer < e.nranks {
			out = append(out, o)
		}
	}
	return out
}

// bufs returns the staging buffers and global strip origins for one
// side: we send our territory edge and receive into the exchange halo
// beyond it.
func (e *exchanger) bufs(right bool) (sbuf, rbuf []float64, sgx, rgx int) {
	if right {
		return e.sendHi, e.recvHi, e.part.X1 - e.h, e.part.X1
	}
	return e.sendLo, e.recvLo, e.part.X0, e.part.X0 - e.h
}

// exchangeSync performs the fully blocking exchange with both
// neighbours. Even ranks send before receiving, odd ranks the reverse,
// keeping every pair compatible on rendezvous transports.
func (e *exchanger) exchangeSync() error {
	if e.nranks == 1 {
		return nil
	}
	for _, o := range e.neighbours() {
		start := time.Now()
		sbuf, rbuf, sgx, rgx := e.bufs(o.right)
		send := func() error {
			e.pack(sgx, sbuf)
			e.messages++
			e.floats += int64(len(sbuf))
			countTransfer("send", o.peer, len(sbuf))
			return e.tr.Send(o.peer, sbuf)
		}
		recv := func() error {
			if err := e.tr.Recv(o.peer, rbuf); err != nil {
				return err
			}
			countTransfer("recv", o.peer, len(rbuf))
			e.unpack(rgx, rbuf)
			return nil
		}
		first, second := send, recv
		if e.id%2 == 1 {
			first, second = recv, send
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		e.observePeer(o.peer, start)
	}
	return nil
}

// start launches the overlapped exchange: packs the outgoing strips
// now (snapshotting pre-region state, so the wire carries exactly the
// bytes the synchronous path would) and drives each neighbour's duplex
// swap from its own goroutine. The caller is free to run interior
// blocks until wait().
func (e *exchanger) start() {
	if e.nranks == 1 {
		return
	}
	e.loLive, e.hiLive = false, false
	for _, o := range e.neighbours() {
		sbuf, rbuf, sgx, _ := e.bufs(o.right)
		e.pack(sgx, sbuf)
		if o.right {
			e.hiLive = true
		} else {
			e.loLive = true
		}
		e.inflight++
		go e.swapAsync(o.peer, sbuf, rbuf)
	}
	if telemetry.Enabled() && e.inflight > 0 {
		telemetry.DistExchangesOverlapped.Inc()
	}
}

// swapAsync runs one neighbour's send and recv concurrently — the
// transport contract guarantees full duplexity per peer — and reports
// the outcome on e.done. It touches only the staging buffers, never
// the grid, so it races with nothing the interior blocks do.
func (e *exchanger) swapAsync(peer int, sbuf, rbuf []float64) {
	start := time.Now()
	countTransfer("send", peer, len(sbuf))
	sendErr := make(chan error, 1)
	go func() { sendErr <- e.tr.Send(peer, sbuf) }()
	rerr := e.tr.Recv(peer, rbuf)
	serr := <-sendErr
	err := serr
	if err == nil {
		err = rerr
	}
	if err == nil {
		countTransfer("recv", peer, len(rbuf))
		e.observePeer(peer, start)
	}
	e.done <- swapResult{peer: peer, floats: len(sbuf), err: err}
}

// wait blocks until every in-flight swap completes, then unpacks the
// received strips into the exchange halos. It must be called after the
// interior blocks finish and before any halo-dependent block runs. On
// error the halos are left unpacked and the error is returned (all
// swaps are still drained, so no goroutine leaks).
func (e *exchanger) wait() error {
	var err error
	for ; e.inflight > 0; e.inflight-- {
		r := <-e.done
		e.messages++
		e.floats += int64(r.floats)
		if err == nil {
			err = r.err
		}
	}
	if err != nil {
		return err
	}
	if e.loLive {
		_, rbuf, _, rgx := e.bufs(false)
		e.unpack(rgx, rbuf)
	}
	if e.hiLive {
		_, rbuf, _, rgx := e.bufs(true)
		e.unpack(rgx, rbuf)
	}
	return nil
}

// observePeer feeds the per-peer swap latency histogram and emits a
// per-peer span on the rank's exchange lane (TID 1000+rank), so Chrome
// traces show exchange strictly overlapping the interior-block span on
// the rank's compute lane.
func (e *exchanger) observePeer(peer int, start time.Time) {
	if !telemetry.Enabled() {
		return
	}
	telemetry.DistPeerExchangeSeconds.Histogram(strconv.Itoa(peer)).Observe(time.Since(start).Seconds())
	telemetry.DefaultTracer.RecordSpan(telemetry.Event{
		Name: "exchange:" + strconv.Itoa(peer), Cat: "dist",
		TID: exchangeLane + e.id, Phase: -1, Stage: -1,
	}, start)
}

// exchangeLane offsets the tracer TID of exchange spans so they render
// on a separate lane from the rank's compute spans (TID = rank).
const exchangeLane = 1000

// MeasuredExchangeCost returns the mean observed single-neighbour swap
// latency summed over peers — the expected wall cost of one full
// exchange — from the tess_dist_peer_exchange_seconds histograms.
// Returns 0 when nothing has been observed yet. This is the
// measurement autotune.SearchDist charges per parallel region when
// scoring (BT, Big) candidates.
func MeasuredExchangeCost(peers []int) float64 {
	total := 0.0
	for _, p := range peers {
		h := telemetry.DistPeerExchangeSeconds.Histogram(strconv.Itoa(p))
		if n := h.Count(); n > 0 {
			total += h.Sum() / float64(n)
		}
	}
	return total
}
