// Snapshot algebra: the operations that turn per-day, per-region
// partials into the analysis views the paper's methodology needs.
// Collection happens in units — one probe run, one day, one region —
// and analysis happens over combinations and slices of those units:
// Merge (rollup.go) widens aligned grids onto their union, Append
// names the time-extension special case, Window cuts a bin subrange
// back out of a merged partial, and the package-level Window adapts a
// slice straight onto core.Dataset so the experiment engine runs
// per-day, weekday or weekend views of one merged snapshot.

package rollup

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// ParseBinRange parses the "A:B" bin-range syntax the CLIs share
// (analyze -window, probesim -window). Parsing is strict — trailing
// garbage after either number is an error, never a silently truncated
// range ("0:19x2" must not analyze bins [0, 19)).
func ParseBinRange(s string) (from, to int, err error) {
	a, b, ok := strings.Cut(s, ":")
	if ok {
		from, err = strconv.Atoi(a)
		if err == nil {
			to, err = strconv.Atoi(b)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("rollup: bin range %q is not A:B with integer bins", s)
	}
	return from, to, nil
}

// Append is the time-extension merge: it folds a partial covering a
// later (or earlier) aligned range — the next day's rollup, a
// backfilled earlier week — into p, widening p's grid to the union of
// the two ranges. It is exactly Merge; the name documents intent at
// call sites that concatenate time ranges rather than combine shards.
func (p *Partial) Append(o *Partial) error { return p.Merge(o) }

// Window returns the sub-partial covering bins [from, to) of p's
// grid, re-based so the window's first bin is bin 0 and its start
// time is p's start advanced by from steps.
//
// A window is a view of classified, binned traffic only: the overflow
// epoch (traffic with no position on the grid) is dropped, the service
// table is compacted to services observed inside the window, and both
// TotalBytes and ClassifiedBytes are recomputed as the window's cell
// sums — unattributed volume and the run counters cannot be assigned
// to a time range, so Counters and LateFrames reset to zero.
//
// Windowing distributes over merging: merging the [a,b) and [b,c)
// windows of a partial reproduces its [a,c) window bit-exactly, which
// is what the multi-day CI smoke checks with cmp.
func (p *Partial) Window(from, to int) (*Partial, error) {
	if from < 0 || to > p.Cfg.Bins || from >= to {
		return nil, fmt.Errorf("rollup: window [%d, %d) outside the grid of %d bins", from, to, p.Cfg.Bins)
	}
	w := &Partial{Cfg: p.Cfg}
	w.Cfg.Start = p.Cfg.Start.Add(time.Duration(from) * p.Cfg.Step)
	w.Cfg.Bins = to - from
	seen := make([]bool, len(p.Services))
	for _, ep := range p.Epochs {
		if ep.Bin == OverflowBin || ep.Bin < from || ep.Bin >= to {
			continue
		}
		cells := append([]Cell(nil), ep.Cells...)
		for i := range cells {
			seen[cells[i].Svc] = true
		}
		w.Epochs = append(w.Epochs, Epoch{Bin: ep.Bin - from, Cells: cells})
	}
	// Compact the service table to the window's traffic (view.go; the
	// monotonic remap keeps cell order intact) and recompute totals.
	w.compactView(p.Services, seen)
	return w, nil
}

// DayBins returns how many grid bins one calendar day spans, or an
// error when the step does not divide a day.
func (c Config) DayBins() (int, error) {
	if c.Step <= 0 || (24*time.Hour)%c.Step != 0 {
		return 0, fmt.Errorf("rollup: step %v does not tile a day", c.Step)
	}
	return int(24 * time.Hour / c.Step), nil
}

// DayWindow returns the window covering calendar day i of the grid
// (day 0 starts at Cfg.Start), clipped to the grid's end.
func (p *Partial) DayWindow(day int) (*Partial, error) {
	bpd, err := p.Cfg.DayBins()
	if err != nil {
		return nil, err
	}
	from := day * bpd
	to := min(from+bpd, p.Cfg.Bins)
	if day < 0 || from >= p.Cfg.Bins {
		return nil, fmt.Errorf("rollup: day %d outside the %d-bin grid", day, p.Cfg.Bins)
	}
	return p.Window(from, to)
}

// Window materializes bins [from, to) of the partial as a
// core.Dataset: the windowed dataset view the experiment engine runs
// per-day, weekday or weekend slices over. The study week starts on a
// Saturday, so at day granularity the weekend is the contiguous window
// [0, 2·DayBins) and the weekdays are [2·DayBins, Bins).
func Window(p *Partial, from, to int) (core.Dataset, error) {
	w, err := p.Window(from, to)
	if err != nil {
		return nil, err
	}
	return w.Dataset()
}
