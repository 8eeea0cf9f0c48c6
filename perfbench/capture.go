package main

import (
	"time"

	"repro/internal/capture"
	"repro/internal/gtpsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
)

// sealHook is the rollup.Collector.WithSealHook callback shape.
type sealHook = func(shard int, ep rollup.Epoch, nameOf func(svc uint32) string)

// capture runs one simulated capture through a 1-shard probe pipeline
// into a rollup collector, the way probesim and probed do, and returns
// the collector's partial, the pipeline's report and the frame count.
// seal, when set, is the collector's seal hook. ct, when set, traces
// the run under span parent.
func (e *captureEnv) capture(spec captureSpec, seal sealHook, ct *captureTrace, parent int) (*rollup.Partial, *probe.Report, int64, error) {
	sim, err := gtpsim.New(e.country, e.catalog, spec.gcfg)
	if err != nil {
		return nil, nil, 0, err
	}
	reg := obs.NewRegistry()
	pm := probe.NewMetrics(reg, 1)
	pl := probe.NewPipeline(spec.pcfg, sim.Cells, e.cls, 1).WithMetrics(pm)
	col := rollup.NewCollector(spec.rcfg, pl.Shards()).WithMetrics(rollup.NewMetrics(reg))
	var src capture.Source = sim.Stream()
	sinks := col.Sink
	var tr *tracer
	if ct != nil {
		tr = ct.tr
		ct.cells, ct.pcfg = sim.Cells, spec.pcfg
		seal = ct.countSeals(seal)
	}
	if seal != nil {
		col.WithSealHook(seal)
	}
	runID := tr.begin("probe.run", parent)
	if ct != nil {
		src = &tracedSource{src: src, lane: tr.newLane("gtpsim.next", runID, ct.keep), ct: ct}
		ct.observe = tr.newLane("rollup.observe", runID, ct.keep)
		sinks = func(shard int) probe.Sink { return &tracedSink{sink: col.Sink(shard), ct: ct} }
	}
	rep, err := pl.WithSinks(sinks).Run(src)
	tr.end(runID)
	if err != nil {
		return nil, nil, 0, err
	}
	finID := tr.begin("rollup.finish", parent)
	part, err := col.Finish(rep)
	tr.end(finID)
	if err != nil {
		return nil, nil, 0, err
	}
	if ct != nil {
		ct.iterLayers["probe.shard_skew"] = shardSkew(pm)
		ct.iterLayers["dpi.classified_share"] = (rep.ClassifiedBytes[services.DL] + rep.ClassifiedBytes[services.UL]) /
			(rep.TotalBytes[services.DL] + rep.TotalBytes[services.UL])
		ct.iterLayers["rollup.finish_ms"] = tr.spanMs(finID)
	}
	return part, rep, int64(pm.Frames.Load()), nil
}

// shardSkew is the busiest shard's frame count over the mean.
func shardSkew(pm *probe.Metrics) float64 {
	var sum, top uint64
	for _, c := range pm.ShardFrames {
		n := c.Load()
		sum += n
		top = max(top, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(pm.ShardFrames)) / float64(sum)
}

// captureTrace is the traced run's instrumentation of one capture:
// lanes around gtpsim's Next and rollup's Observe, a seal counter, and
// the frames kept for the per-call measurements. Only the first traced
// iteration keeps lane intervals and frames: enough for the self times
// and per-call costs, without holding every call of every iteration.
type captureTrace struct {
	tr         *tracer
	keep       bool
	observe    *lane
	seals      int64
	sample     []capture.Frame
	sampleCap  int
	cells      *gtpsim.CellRegistry
	pcfg       probe.Config
	iterLayers map[string]float64
}

func newCaptureTrace(tr *tracer, keep bool, sampleCap int) *captureTrace {
	if !keep {
		sampleCap = 0
	}
	return &captureTrace{tr: tr, keep: keep, sampleCap: sampleCap, iterLayers: map[string]float64{}}
}

// countSeals counts every seal before passing it to inner, if set.
func (ct *captureTrace) countSeals(inner sealHook) sealHook {
	return func(shard int, ep rollup.Epoch, nameOf func(svc uint32) string) {
		ct.seals++
		if inner != nil {
			inner(shard, ep, nameOf)
		}
	}
}

// tracedSource times gtpsim's Next and keeps a copy of the first
// frames for the per-call measurements.
type tracedSource struct {
	src  capture.Source
	lane *lane
	ct   *captureTrace
}

func (s *tracedSource) Next() (capture.Frame, error) {
	start := s.lane.enter()
	f, err := s.src.Next()
	s.lane.exit(start)
	if err == nil && len(s.ct.sample) < s.ct.sampleCap {
		s.ct.sample = append(s.ct.sample, capture.Frame{Time: f.Time, Data: append([]byte(nil), f.Data...)})
	}
	return f, err
}

// tracedSink times rollup's Observe.
type tracedSink struct {
	sink probe.Sink
	ct   *captureTrace
}

func (s *tracedSink) Observe(o probe.Observation) {
	start := s.ct.observe.enter()
	s.sink.Observe(o)
	s.ct.observe.exit(start)
}

// captureLayers folds the traced captures' lanes into per-frame and
// per-observation costs; counts are per capture.
func captureLayers(tr *tracer, cts []*captureTrace, layers map[string]float64) {
	frames, nextNs := tr.laneTotals("gtpsim.next")
	obsCount, obsNs := tr.laneTotals("rollup.observe")
	var seals int64
	for _, ct := range cts {
		seals += ct.seals
	}
	n := float64(len(cts))
	layers["gtpsim.frames"] = float64(frames) / n
	layers["gtpsim.next_ns_per_frame"] = perCall(nextNs, frames)
	layers["probe.observations"] = float64(obsCount) / n
	layers["rollup.observe_ns_per_obs"] = perCall(obsNs, obsCount)
	layers["rollup.seals"] = float64(seals) / n
}

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

// minMicro is how long each per-call measurement repeats its pass
// over the sampled frames.
const minMicro = 300 * time.Millisecond

// callLayers measures pkt decode, dpi classify and probe HandleFrame
// per call, single-threaded, over the frames a traced capture kept.
func callLayers(e *captureEnv, ct *captureTrace, layers map[string]float64) {
	frames := ct.sample
	if len(frames) == 0 {
		return
	}
	var parser pkt.Parser
	decoded := make([]pkt.LayerType, 0, 16)
	layers["pkt.decode_ns_per_frame"] = repeatPerCall(len(frames), func() {
		for _, f := range frames {
			decoded, _ = parser.Decode(f.Data, decoded)
		}
	})

	var calls []classifyCall
	for _, f := range frames {
		if c, ok := classifyInput(&parser, decoded, ct.pcfg, f.Data); ok {
			calls = append(calls, c)
		}
	}
	if len(calls) > 0 {
		layers["dpi.classify_ns_per_call"] = repeatPerCall(len(calls), func() {
			for _, c := range calls {
				e.cls.Classify(c.ip, c.port, c.payload)
			}
		})
	}
	layers["probe.handle_ns_per_frame"] = repeatPerCall(len(frames), func() {
		p := probe.New(ct.pcfg, ct.cells, e.cls)
		for _, f := range frames {
			p.HandleFrame(f.Time, f.Data)
		}
	})
}

// repeatPerCall runs pass (n calls) until minMicro has elapsed and
// returns nanoseconds per call.
func repeatPerCall(n int, pass func()) float64 {
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < minMicro {
		pass()
		passes++
	}
	return float64(time.Since(start)) / float64(passes*n)
}

type classifyCall struct {
	ip      [4]byte
	port    uint16
	payload []byte
}

// classifyInput decodes a user-plane frame into what the probe hands
// dpi.Classifier.Classify: the server-side address and port (the inner
// destination uplink, the inner source downlink) and the transport
// payload. Control frames and frames without an inner transport are
// skipped.
func classifyInput(parser *pkt.Parser, decoded []pkt.LayerType, pcfg probe.Config, frame []byte) (classifyCall, bool) {
	decoded, err := parser.Decode(frame, decoded)
	if err != nil {
		return classifyCall{}, false
	}
	inner := -1
	for i := 0; i+1 < len(decoded); i++ {
		if decoded[i] == pkt.LayerTypeGTPv1U && decoded[i+1] == pkt.LayerTypeIPv4 {
			inner = i + 1
			break
		}
	}
	if inner < 0 || inner+1 >= len(decoded) {
		return classifyCall{}, false
	}
	uplink := parser.OuterIP.SrcIP == pcfg.AccessGW
	var c classifyCall
	var src, dst uint16
	switch decoded[inner+1] {
	case pkt.LayerTypeTCP:
		src, dst = parser.InnerTCP.SrcPort, parser.InnerTCP.DstPort
		c.payload = parser.InnerTCP.LayerPayload()
	case pkt.LayerTypeUDP:
		src, dst = parser.InnerUDP.SrcPort, parser.InnerUDP.DstPort
		c.payload = parser.InnerUDP.LayerPayload()
	default:
		return classifyCall{}, false
	}
	if uplink {
		c.ip, c.port = parser.InnerIP.DstIP, dst
	} else {
		c.ip, c.port = parser.InnerIP.SrcIP, src
	}
	return c, true
}
