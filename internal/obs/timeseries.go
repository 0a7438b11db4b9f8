package obs

import (
	"bufio"
	"io"
	"strconv"
)

// TimeSeries folds the event stream into fixed-Δt interval samples and
// streams them as CSV:
//
//	t0_us,arrivals,dispatches,completions,drops,reordered,warm_frac,mean_queue,util,p0_busy,p1_busy,…
//
// Each row covers [t0, t0+Δt): packet counts are totals over the
// interval, warm_frac is the warm share of executions started (FlagWarm,
// the simulator's WarmFraction predicate), mean_queue averages the
// queue-depth gauge samples that landed in the interval, util is the
// mean per-processor busy fraction and pN_busy each processor's own.
// reordered counts completions that finished after a later-arrived
// packet of the same stream had already completed (the per-stream
// reordering metric, accumulated per interval).
//
// Like the event CSV sink, rows are hand-built into a reused buffer;
// steady-state recording does not allocate once every stream has been
// seen. Close emits the final partial interval and flushes.
type TimeSeries struct {
	w        *bufio.Writer
	row      []byte
	err      error
	closed   bool
	interval float64

	t0      float64 // current interval start
	started bool    // saw the first event (t0 anchored at 0)
	lastT   float64

	arrivals    uint64
	dispatches  uint64
	completions uint64
	drops       uint64
	reordered   uint64
	execStarts  uint64
	warmStarts  uint64
	queueSum    float64
	queueN      uint64

	busy      []bool    // per-proc: currently busy
	busySince []float64 // per-proc: busy since (≥ t0 once rolled)
	busyAccum []float64 // per-proc: busy time closed inside this interval

	streamMax []uint64 // per-stream max completed global seq + 1
}

// NewTimeSeries returns an interval aggregator writing CSV rows to w.
// Non-positive or NaN intervalUs selects 1000 µs; procs sizes the
// per-processor columns (grown on demand if events name a higher
// processor).
func NewTimeSeries(w io.Writer, intervalUs float64, procs int) *TimeSeries {
	if !(intervalUs > 0) {
		intervalUs = 1000
	}
	if procs < 0 {
		procs = 0
	}
	t := &TimeSeries{
		w:         bufio.NewWriter(w),
		row:       make([]byte, 0, 256),
		interval:  intervalUs,
		busy:      make([]bool, procs),
		busySince: make([]float64, procs),
		busyAccum: make([]float64, procs),
	}
	b := append(t.row[:0], "t0_us,arrivals,dispatches,completions,drops,reordered,warm_frac,mean_queue,util"...)
	for p := 0; p < procs; p++ {
		b = append(b, ",p"...)
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, "_busy"...)
	}
	b = append(b, '\n')
	t.row = b
	_, t.err = t.w.Write(b)
	return t
}

func (t *TimeSeries) growProc(p int) {
	for len(t.busy) <= p {
		t.busy = append(t.busy, false)
		t.busySince = append(t.busySince, 0)
		t.busyAccum = append(t.busyAccum, 0)
	}
}

// emit writes the row for [t.t0, end) and resets interval state.
func (t *TimeSeries) emit(end float64) {
	span := end - t.t0
	b := t.row[:0]
	b = strconv.AppendFloat(b, t.t0, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendUint(b, t.arrivals, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, t.dispatches, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, t.completions, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, t.drops, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, t.reordered, 10)
	b = append(b, ',')
	warm := 0.0
	if t.execStarts > 0 {
		warm = float64(t.warmStarts) / float64(t.execStarts)
	}
	b = strconv.AppendFloat(b, warm, 'g', -1, 64)
	b = append(b, ',')
	meanQ := 0.0
	if t.queueN > 0 {
		meanQ = t.queueSum / float64(t.queueN)
	}
	b = strconv.AppendFloat(b, meanQ, 'g', -1, 64)
	b = append(b, ',')
	util := 0.0
	for p := range t.busyAccum {
		acc := t.busyAccum[p]
		if t.busy[p] && end > t.busySince[p] {
			acc += end - t.busySince[p]
		}
		frac := 0.0
		if span > 0 {
			frac = acc / span
		}
		util += frac
		t.busyAccum[p] = frac // stash the fraction for the per-proc pass
	}
	if len(t.busyAccum) > 0 {
		util /= float64(len(t.busyAccum))
	}
	b = strconv.AppendFloat(b, util, 'g', -1, 64)
	for p := range t.busyAccum {
		b = append(b, ',')
		b = strconv.AppendFloat(b, t.busyAccum[p], 'g', -1, 64)
	}
	b = append(b, '\n')
	t.row = b
	if t.err == nil {
		_, t.err = t.w.Write(b)
	}

	t.arrivals, t.dispatches, t.completions, t.drops = 0, 0, 0, 0
	t.reordered, t.execStarts, t.warmStarts = 0, 0, 0
	t.queueSum, t.queueN = 0, 0
	for p := range t.busyAccum {
		t.busyAccum[p] = 0
		if t.busy[p] && t.busySince[p] < end {
			t.busySince[p] = end
		}
	}
}

// roll closes every interval that ends at or before tm.
func (t *TimeSeries) roll(tm float64) {
	if !t.started {
		t.started = true
		t.t0 = 0
	}
	for tm >= t.t0+t.interval {
		end := t.t0 + t.interval
		t.emit(end)
		t.t0 = end
	}
}

// Record implements Recorder.
func (t *TimeSeries) Record(e Event) {
	if t.closed {
		return
	}
	t.roll(e.T)
	if e.T > t.lastT {
		t.lastT = e.T
	}
	switch e.Kind {
	case KindArrival:
		t.arrivals++
	case KindDispatch:
		t.dispatches++
	case KindExecStart:
		t.execStarts++
		if e.Flags&FlagWarm != 0 {
			t.warmStarts++
		}
	case KindExecEnd:
		t.completions++
		if e.Stream >= 0 {
			for len(t.streamMax) <= e.Stream {
				t.streamMax = append(t.streamMax, 0)
			}
			// Within a stream, arrival order is ascending global seq, so a
			// completion below the stream's watermark finished out of order.
			if e.Seq+1 > t.streamMax[e.Stream] {
				t.streamMax[e.Stream] = e.Seq + 1
			} else {
				t.reordered++
			}
		}
	case KindDrop:
		t.drops++
	case KindProcBusy:
		if e.Proc >= 0 {
			t.growProc(e.Proc)
			t.busy[e.Proc] = true
			t.busySince[e.Proc] = e.T
		}
	case KindProcIdle, KindProcDown:
		if e.Proc >= 0 {
			t.growProc(e.Proc)
			if t.busy[e.Proc] {
				t.busyAccum[e.Proc] += e.T - t.busySince[e.Proc]
				t.busy[e.Proc] = false
			}
		}
	case KindGaugeQueue:
		t.queueSum += e.Val
		t.queueN++
	}
}

// Err returns the first write error, if any.
func (t *TimeSeries) Err() error { return t.err }

// Close emits the final partial interval (if it saw any time) and
// flushes. Events recorded after Close are dropped.
func (t *TimeSeries) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.started && t.lastT > t.t0 {
		t.emit(t.lastT)
	}
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}
