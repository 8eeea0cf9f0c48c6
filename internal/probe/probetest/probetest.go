// Package probetest provides helpers for tests of code built on the
// probe: a reference Sink that accumulates the full per-service report
// from the observation stream, and builders for the GTP frames
// scripted probe scenarios feed.
package probetest

import (
	"sync"

	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/pkt"
	"repro/internal/probe"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// Reference is a probe.Sink that builds a full probe.Report —
// per-service volumes, dense per-commune vectors, national and
// per-urbanization-class series — with one += per aggregate and
// observation. It shares no code with the rollup store, so it is the
// independent accumulator the rollup cell path is checked against.
// It is safe for concurrent use: one Reference may serve every shard
// of a pipeline.
type Reference struct {
	mu      sync.Mutex
	cfg     probe.Config
	classes []geo.Urbanization
	rep     *probe.Report
}

// NewReference returns an empty reference over the classifier
// namespace names, the country's communes and cfg's time grid.
func NewReference(cfg probe.Config, country *geo.Country, names *services.Names) *Reference {
	classes := make([]geo.Urbanization, len(country.Communes))
	for i := range country.Communes {
		classes[i] = country.Communes[i].Urbanization
	}
	return &Reference{cfg: cfg, classes: classes, rep: probe.NewReport(names, len(country.Communes))}
}

// Observe implements probe.Sink. Traffic outside the time grid counts
// in the service's volumes, but in no series.
func (r *Reference) Observe(o probe.Observation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep, d, svc := r.rep, o.Dir, o.Svc
	rep.SvcBytes[d][svc] += o.Bytes
	if rep.SvcCommuneBytes[d][svc] == nil {
		rep.SvcCommuneBytes[d][svc] = make([]float64, rep.Communes)
		rep.SvcSeries[d][svc] = timeseries.New(r.cfg.Start, r.cfg.Step, r.cfg.Bins)
		cls := new([geo.NumUrbanization]*timeseries.Series)
		for u := range cls {
			cls[u] = timeseries.New(r.cfg.Start, r.cfg.Step, r.cfg.Bins)
		}
		rep.SvcClassSeries[d][svc] = cls
	}
	rep.SvcCommuneBytes[d][svc][o.Commune] += o.Bytes
	if i := rep.SvcSeries[d][svc].IndexOf(o.At); i >= 0 {
		rep.SvcSeries[d][svc].Values[i] += o.Bytes
		rep.SvcClassSeries[d][svc][r.classes[o.Commune]].Values[i] += o.Bytes
	}
}

// Report returns the accumulated report completed with the totals and
// counters of live, the report of the probe or pipeline the reference
// observed.
func (r *Reference) Report(live *probe.Report) *probe.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.rep
	rep.TotalBytes, rep.ClassifiedBytes = live.TotalBytes, live.ClassifiedBytes
	rep.DecodeErrors = live.DecodeErrors
	rep.UnknownTEID = live.UnknownTEID
	rep.UnknownCell = live.UnknownCell
	rep.ControlMessages = live.ControlMessages
	rep.UserPlanePackets = live.UserPlanePackets
	return rep
}

// Tee returns a sink forwarding every observation to each of sinks in
// order.
func Tee(sinks ...probe.Sink) probe.Sink { return tee(sinks) }

type tee []probe.Sink

func (t tee) Observe(o probe.Observation) {
	for _, s := range t {
		s.Observe(o)
	}
}

// ControlFrame returns a GTPv2-C message of type msgType sent from the
// access to the core gateway that binds data tunnel teid to location
// uli (Create Session and Modify Bearer requests carry both).
func ControlFrame(msgType uint8, teid uint32, uli pkt.ULI) []byte {
	m := &pkt.GTPv2C{MessageType: msgType, TEID: 1, Sequence: 1,
		DataTEID: teid, HasDataTEID: true, Location: uli, HasULI: true}
	seg := (&pkt.UDP{SrcPort: 31000, DstPort: pkt.PortGTPC}).SerializeTo(nil, m.SerializeTo(nil, nil))
	return (&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: gtpsim.AccessGW, DstIP: gtpsim.CoreGW}).SerializeTo(nil, seg)
}

// DownlinkFrame returns a G-PDU on tunnel teid, sent from the core to
// the access gateway, that carries a TCP segment of size payload bytes
// from port 443 of a server in the catalogue's YouTube prefix to a UE.
func DownlinkFrame(teid uint32, size int) []byte {
	ue, server := [4]byte{10, 0, 0, 1}, [4]byte{203, 1, 0, 1}
	tcp := &pkt.TCP{SrcPort: 443, DstPort: 50000, Flags: pkt.TCPAck}
	tcp.SetChecksumIPs(server, ue)
	inner := (&pkt.IPv4{TTL: 60, Protocol: pkt.IPProtoTCP, SrcIP: server, DstIP: ue}).SerializeTo(nil, tcp.SerializeTo(nil, make([]byte, size)))
	tun := (&pkt.GTPv1U{MessageType: pkt.GTPMsgGPDU, TEID: teid}).SerializeTo(nil, inner)
	seg := (&pkt.UDP{SrcPort: 31000, DstPort: pkt.PortGTPU}).SerializeTo(nil, tun)
	return (&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: gtpsim.CoreGW, DstIP: gtpsim.AccessGW}).SerializeTo(nil, seg)
}
