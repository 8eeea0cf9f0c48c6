// Package probe implements the passive measurement pipeline of the
// paper's Section 2: a tap on the Gn / S5-S8 interfaces that inspects
// GTP-C to track User Location Information per tunnel, decodes GTP-U
// to account user-plane traffic, classifies flows with DPI, and emits
// one Observation per classified, geo-referenced packet.
//
// The probe never sees the simulator's ground truth — only raw frames.
// It keeps only what attributing a packet needs: per-tunnel geo state,
// the DPI flow cache, per-direction byte totals and anomaly counters.
// Every per-(service, direction, commune, time bin) aggregate is built
// by the Sink attached to it — the rollup store's builder — and the
// analysis reads them back from its cells (rollup.Partial.Report).
//
// The accounting hot path is steady-state allocation-free: services
// are dense services.ID values from the classifier's interning table,
// and an observation is a value handed to the sink.
package probe

import (
	"time"

	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/pkt"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// Direction aliases keep the report indexable with services constants.
const (
	DL = services.DL
	UL = services.UL
)

// Config configures a probe instance.
type Config struct {
	// AccessGW and CoreGW identify the interface sides: frames from
	// AccessGW to CoreGW are uplink, the reverse downlink.
	AccessGW, CoreGW [4]byte
	// Start, Step and Bins define the time grid the probe's sinks
	// aggregate on (rollup.ConfigFrom reads them); the probe itself
	// bins nothing.
	Start time.Time
	Step  time.Duration
	Bins  int
}

// DefaultConfig bins the study week at 15-minute resolution.
func DefaultConfig() Config {
	return Config{
		AccessGW: gtpsim.AccessGW,
		CoreGW:   gtpsim.CoreGW,
		Start:    timeseries.StudyStart,
		Step:     timeseries.DefaultStep,
		Bins:     int(timeseries.Week / timeseries.DefaultStep),
	}
}

// ConfigFor returns DefaultConfig(). Per-urbanization-class
// aggregates come from rollup cells, so a probe needs nothing of the
// country; the signature stays for callers that configure per country.
func ConfigFor(*geo.Country) Config { return DefaultConfig() }

// Observation is one classified, geo-referenced accounting event: the
// probe attributed Bytes of user-plane traffic to a service, a
// direction and the commune of the tunnel's latest ULI fix, observed
// at the given capture timestamp. The probe emits exactly one per
// packet it adds to Report.ClassifiedBytes, so the observation stream
// carries every classified byte once — including traffic outside the
// configured time grid, which sinks must keep (the rollup builder's
// overflow epoch) rather than drop.
type Observation struct {
	At time.Time
	// Dir and Svc key the accounting cell; Svc is the dense ID sinks
	// aggregate under (the rollup builder packs it into its cell keys).
	Dir services.Direction
	Svc services.ID
	// Service is Svc's interned name — carried for the export boundary
	// so sinks can resolve names without sharing the interning table.
	Service string
	Commune int
	Bytes   float64
}

// Sink consumes the probe's classified observations online, as frames
// flow — the hook the rollup store hangs its per-(service, commune,
// bin) accumulators on. A sink is called on the goroutine of the probe
// it is attached to. In a sharded pipeline each shard gets the sink
// its factory returns for it (see Pipeline.WithSinks); a sink handed
// to several shards is called concurrently and must synchronize.
type Sink interface {
	Observe(Observation)
}

// Report is the probe's measurement output. A live probe fills only
// the scalar fields — per-direction totals and the anomaly counters —
// and leaves every per-service field nil. Re-constructors that hold
// per-cell aggregates (rollup.Partial.Report) fill the rest: every
// per-service field is then a slice indexed by services.ID in the
// Names table, and per-commune volumes are dense slices of Communes
// entries. Slots stay nil (or zero) for services that carried nothing,
// so equality between two reports over the same namespace is plain
// reflect.DeepEqual.
type Report struct {
	// Names is the ID namespace every Svc* slice is indexed by.
	Names *services.Names
	// Communes is the size of the commune ID space (dense per-commune
	// slices have exactly this length).
	Communes int
	// TotalBytes and ClassifiedBytes per direction.
	TotalBytes      [services.NumDirections]float64
	ClassifiedBytes [services.NumDirections]float64
	// SvcBytes holds the classified volume per service.
	SvcBytes [services.NumDirections][]float64
	// SvcCommuneBytes holds the volume per service per commune; the
	// inner slice is nil when the service carried nothing in that
	// direction.
	SvcCommuneBytes [services.NumDirections][][]float64
	// SvcSeries holds the national time series per service (nil for
	// unobserved services).
	SvcSeries [services.NumDirections][]*timeseries.Series
	// SvcClassSeries holds the per-urbanization-class series per
	// service (nil for unobserved services).
	SvcClassSeries [services.NumDirections][]*[geo.NumUrbanization]*timeseries.Series
	// Error and anomaly counters.
	DecodeErrors     int
	UnknownTEID      int
	UnknownCell      int
	ControlMessages  int
	UserPlanePackets int
}

// NewReport returns an empty report over the given ID namespace and
// commune space: every ID-indexed slice is allocated, every slot
// empty — the shape re-constructors (the rollup store) fill in.
func NewReport(names *services.Names, communes int) *Report {
	rep := &Report{Names: names, Communes: communes}
	n := names.Len()
	for d := 0; d < services.NumDirections; d++ {
		rep.SvcBytes[d] = make([]float64, n)
		rep.SvcCommuneBytes[d] = make([][]float64, n)
		rep.SvcSeries[d] = make([]*timeseries.Series, n)
		rep.SvcClassSeries[d] = make([]*[geo.NumUrbanization]*timeseries.Series, n)
	}
	return rep
}

// ClassificationRate returns the fraction of user-plane bytes the DPI
// attributed to a service (the paper reports 88%).
func (r *Report) ClassificationRate() float64 {
	total := r.TotalBytes[DL] + r.TotalBytes[UL]
	if total == 0 {
		return 0
	}
	return (r.ClassifiedBytes[DL] + r.ClassifiedBytes[UL]) / total
}

// Merge adds o's totals and counters into r. Shard reports merge
// exactly: every total is a sum of integer-valued per-frame
// contributions, so accumulation order cannot change the result.
func (r *Report) Merge(o *Report) {
	for d := 0; d < services.NumDirections; d++ {
		r.TotalBytes[d] += o.TotalBytes[d]
		r.ClassifiedBytes[d] += o.ClassifiedBytes[d]
	}
	r.DecodeErrors += o.DecodeErrors
	r.UnknownTEID += o.UnknownTEID
	r.UnknownCell += o.UnknownCell
	r.ControlMessages += o.ControlMessages
	r.UserPlanePackets += o.UserPlanePackets
}

// --- export-boundary accessors ---------------------------------------
//
// The analysis layer addresses services by name; these accessors do
// the one name→ID hop so no consumer re-implements the indexing. On a
// report without per-service data (a live probe's) they return zero
// values.

// slotOf returns the named service's entry of an ID-indexed field, or
// the zero value when the name is outside the namespace or the field
// is not populated.
func slotOf[T any](r *Report, field []T, name string) T {
	var zero T
	if r.Names == nil {
		return zero
	}
	if id, ok := r.Names.Lookup(name); ok && int(id) < len(field) {
		return field[id]
	}
	return zero
}

// BytesOf returns the classified volume of the named service (0 when
// the name is outside the namespace or carried nothing).
func (r *Report) BytesOf(dir services.Direction, name string) float64 {
	return slotOf(r, r.SvcBytes[dir], name)
}

// SeriesOf returns the national series of the named service, nil when
// unobserved.
func (r *Report) SeriesOf(dir services.Direction, name string) *timeseries.Series {
	return slotOf(r, r.SvcSeries[dir], name)
}

// CommuneBytesOf returns the dense per-commune volumes of the named
// service, nil when unobserved. The slice is the report's own: callers
// must not mutate it.
func (r *Report) CommuneBytesOf(dir services.Direction, name string) []float64 {
	return slotOf(r, r.SvcCommuneBytes[dir], name)
}

// ClassSeriesOf returns the per-urbanization-class series of the named
// service, nil when unobserved.
func (r *Report) ClassSeriesOf(dir services.Direction, name string) *[geo.NumUrbanization]*timeseries.Series {
	return slotOf(r, r.SvcClassSeries[dir], name)
}

// Probe is the stateful frame consumer.
type Probe struct {
	cfg      Config
	registry *gtpsim.CellRegistry
	flows    *dpi.FlowCache
	parser   pkt.Parser
	decoded  []pkt.LayerType

	// teidCommune maps a data-plane TEID to the commune of its latest
	// ULI fix — the geo-referencing state the paper's probes keep.
	teidCommune map[uint32]int
	report      *Report
	sink        Sink
}

// New builds a probe. The cell registry stands in for the operator's
// cell-to-commune database.
func New(cfg Config, registry *gtpsim.CellRegistry, classifier *dpi.Classifier) *Probe {
	return &Probe{
		cfg:         cfg,
		registry:    registry,
		flows:       dpi.NewFlowCache(classifier),
		teidCommune: map[uint32]int{},
		report:      &Report{},
	}
}

// Report returns the probe's totals and counters.
func (p *Probe) Report() *Report { return p.report }

// SetSink registers a sink receiving every classified observation the
// probe accounts from now on. Must be set before frames are handled.
func (p *Probe) SetSink(s Sink) { p.sink = s }

// HandleFrame consumes one captured frame. The frame bytes are only
// read during the call: the probe retains nothing of them, so callers
// may reuse the buffer immediately (the capture.Source contract).
//
//repro:hotpath
func (p *Probe) HandleFrame(at time.Time, frame []byte) {
	var err error
	p.decoded, err = p.parser.Decode(frame, p.decoded)
	if err != nil {
		p.report.DecodeErrors++
		return
	}
	last := p.decoded[len(p.decoded)-1]
	switch last {
	case pkt.LayerTypeGTPv1C:
		p.handleControl(p.parser.GTPv1C.MessageType == pkt.GTPv1MsgCreatePDPRequest ||
			p.parser.GTPv1C.MessageType == pkt.GTPv1MsgUpdatePDPRequest,
			p.parser.GTPv1C.HasDataTEID, p.parser.GTPv1C.DataTEID,
			p.parser.GTPv1C.HasULI, p.parser.GTPv1C.Location)
	case pkt.LayerTypeGTPv2C:
		p.handleControl(p.parser.GTPv2C.MessageType == pkt.GTPv2MsgCreateSessionRequest ||
			p.parser.GTPv2C.MessageType == pkt.GTPv2MsgModifyBearerRequest,
			p.parser.GTPv2C.HasDataTEID, p.parser.GTPv2C.DataTEID,
			p.parser.GTPv2C.HasULI, p.parser.GTPv2C.Location)
	default:
		p.maybeUserPlane(at)
	}
}

//repro:hotpath
func (p *Probe) handleControl(locationBearing, hasTEID bool, dataTEID uint32, hasULI bool, uli pkt.ULI) {
	p.report.ControlMessages++
	if !locationBearing || !hasULI {
		return
	}
	commune, ok := p.registry.CommuneOf(uli.CellID)
	if !ok {
		p.report.UnknownCell++
		return
	}
	if hasTEID {
		p.teidCommune[dataTEID] = commune
		return
	}
	// Modify/Update without an explicit F-TEID re-uses the known one;
	// our simulator always includes it on location updates, so nothing
	// to do here.
}

// maybeUserPlane accounts a GTP-U G-PDU.
//
//repro:hotpath
func (p *Probe) maybeUserPlane(at time.Time) {
	// Locate the tunnel: an inner IPv4 decoded immediately after GTP-U
	// marks a G-PDU. The inner IP's index anchors everything below —
	// the inner transport is the layer at innerIP+1, never found by
	// scanning, so an outer TCP/UDP header can't be misattributed
	// whatever the outer layout looks like.
	innerIP := -1
	for i := 0; i+1 < len(p.decoded); i++ {
		if p.decoded[i] == pkt.LayerTypeGTPv1U && p.decoded[i+1] == pkt.LayerTypeIPv4 {
			innerIP = i + 1
			break
		}
	}
	if innerIP < 0 {
		return
	}
	p.report.UserPlanePackets++

	// Direction from the outer gateway addresses.
	var dir services.Direction
	switch {
	case p.parser.OuterIP.SrcIP == p.cfg.AccessGW && p.parser.OuterIP.DstIP == p.cfg.CoreGW:
		dir = UL
	case p.parser.OuterIP.SrcIP == p.cfg.CoreGW && p.parser.OuterIP.DstIP == p.cfg.AccessGW:
		dir = DL
	default:
		// Unknown interface direction; skip.
		return
	}

	inner := &p.parser.InnerIP
	bytes := float64(inner.Length)
	p.report.TotalBytes[dir] += bytes

	commune, ok := p.teidCommune[p.parser.GTPU.TEID]
	if !ok {
		p.report.UnknownTEID++
		return
	}

	// Transport ports for the flow key and DPI: the layer decoded
	// right after the inner IP, if it is a transport at all.
	var srcPort, dstPort uint16
	var payload []byte
	if t := innerIP + 1; t < len(p.decoded) {
		switch p.decoded[t] {
		case pkt.LayerTypeTCP:
			srcPort, dstPort = p.parser.InnerTCP.SrcPort, p.parser.InnerTCP.DstPort
			payload = p.parser.InnerTCP.LayerPayload()
		case pkt.LayerTypeUDP:
			srcPort, dstPort = p.parser.InnerUDP.SrcPort, p.parser.InnerUDP.DstPort
			payload = p.parser.InnerUDP.LayerPayload()
		}
	}

	// The server side is the non-UE endpoint: uplink destinations and
	// downlink sources.
	serverIP := inner.DstIP
	serverPort := dstPort
	if dir == DL {
		serverIP = inner.SrcIP
		serverPort = srcPort
	}

	flow, _ := pkt.FlowFromPacket(inner, srcPort, dstPort)
	res := p.flows.Classify(flow, serverIP, serverPort, payload)
	if res.ID == services.NoID {
		return
	}
	p.report.ClassifiedBytes[dir] += bytes
	if p.sink != nil {
		p.sink.Observe(Observation{At: at, Dir: dir, Svc: res.ID, Service: res.Service, Commune: commune, Bytes: bytes})
	}
}
