package rollup

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measured"
	"repro/internal/probe"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// Report builds the full probe.Report the partial's cells distill:
// per-service volumes, per-commune accounting, national and
// per-urbanization-class series, totals and counters. This is the only
// place per-service aggregates are built: a live probe keeps just the
// totals and counters, and its observations reach the analysis as
// cells. Every aggregate is a sum of integer-valued per-frame
// contributions, so summing them per cell instead of per frame gives
// bit-identical floats.
func (p *Partial) Report(country *geo.Country) (*probe.Report, error) {
	if p.Cfg.Geo.NumCommunes != 0 && len(country.Communes) != p.Cfg.Geo.NumCommunes {
		return nil, fmt.Errorf("rollup: geography has %d communes, snapshot was built over %d",
			len(country.Communes), p.Cfg.Geo.NumCommunes)
	}
	// The ID namespace of the report is the default DPI catalogue —
	// exactly the classifier namespace the live path ran under —
	// extended with any snapshot-only names so no cell is dropped. For
	// snapshots of catalogue traffic (every live run) the table is
	// identical to the live classifier's.
	names := services.DefaultNames()
	var extra []string
	for _, name := range p.Services {
		if _, ok := names.Lookup(name); !ok {
			extra = append(extra, name)
		}
	}
	if extra != nil {
		// Guard the ID namespace before interning: NewNames panics past
		// it, and a merged snapshot's union table can legitimately be
		// bigger than any single capture's.
		if total := names.Len() + len(extra); total >= int(services.NoID) {
			return nil, fmt.Errorf("rollup: snapshot needs %d service IDs, the namespace holds %d",
				total, int(services.NoID)-1)
		}
		names = services.NewNames(append(append([]string(nil), names.All()...), extra...))
	}
	// Map each snapshot service index straight to its report ID.
	toID := make([]services.ID, len(p.Services))
	for i, name := range p.Services {
		id, _ := names.Lookup(name)
		toID[i] = id
	}

	rep := probe.NewReport(names, len(country.Communes))
	for d := 0; d < services.NumDirections; d++ {
		rep.TotalBytes[d] = p.TotalBytes[d]
		rep.ClassifiedBytes[d] = p.ClassifiedBytes[d]
	}
	rep.DecodeErrors = p.Counters.DecodeErrors
	rep.UnknownTEID = p.Counters.UnknownTEID
	rep.UnknownCell = p.Counters.UnknownCell
	rep.ControlMessages = p.Counters.ControlMessages
	rep.UserPlanePackets = p.Counters.UserPlanePackets

	for _, ep := range p.Epochs {
		for _, c := range ep.Cells {
			dir := services.Direction(c.Dir)
			svc := toID[c.Svc]
			commune := int(c.Commune)
			if commune >= len(country.Communes) {
				return nil, fmt.Errorf("rollup: cell commune %d outside the %d-commune geography", commune, len(country.Communes))
			}
			rep.SvcBytes[dir][svc] += c.Bytes
			perCommune := rep.SvcCommuneBytes[dir][svc]
			if perCommune == nil {
				perCommune = make([]float64, len(country.Communes))
				rep.SvcCommuneBytes[dir][svc] = perCommune
			}
			perCommune[commune] += c.Bytes

			// A service's series exist once it carried any classified
			// traffic in the direction, even if all of it fell outside
			// the grid: create them before the overflow check.
			series := rep.SvcSeries[dir][svc]
			if series == nil {
				series = timeseries.New(p.Cfg.Start, p.Cfg.Step, p.Cfg.Bins)
				rep.SvcSeries[dir][svc] = series
			}
			cls := rep.SvcClassSeries[dir][svc]
			if cls == nil {
				cls = newClassSeries(p.Cfg.Start, p.Cfg.Step, p.Cfg.Bins)
				rep.SvcClassSeries[dir][svc] = cls
			}
			if ep.Bin == OverflowBin {
				continue
			}
			series.Values[ep.Bin] += c.Bytes
			cls[country.Communes[commune].Urbanization].Values[ep.Bin] += c.Bytes
		}
	}
	return rep, nil
}

// Dataset materializes the partial into the analysis API: the
// geography is regenerated deterministically from the snapshot's geo
// config, the report is built from the cells, and
// measured.FromProbeGrid maps it onto core.Dataset on the partial's
// grid. The catalogue is the DPI catalogue, as in
// the live path; services the snapshot never saw are dropped the same
// way.
func (p *Partial) Dataset() (core.Dataset, error) {
	country := geo.Generate(p.Cfg.Geo)
	rep, err := p.Report(country)
	if err != nil {
		return nil, err
	}
	return measured.FromProbeGrid(rep, country, services.Catalog(), p.Cfg.Start, p.Cfg.Step, p.Cfg.Bins)
}

// newClassSeries allocates the per-urbanization-class series block of
// one (direction, service) slot in three allocations instead of
// 2×NumUrbanization+1: one Series array, one shared Values backing,
// one pointer array.
func newClassSeries(start time.Time, step time.Duration, bins int) *[geo.NumUrbanization]*timeseries.Series {
	block := make([]timeseries.Series, geo.NumUrbanization)
	values := make([]float64, geo.NumUrbanization*bins)
	cls := new([geo.NumUrbanization]*timeseries.Series)
	for u := range cls {
		block[u] = timeseries.Series{Start: start, Step: step, Values: values[u*bins : (u+1)*bins : (u+1)*bins]}
		cls[u] = &block[u]
	}
	return cls
}

// Open loads a snapshot file and returns it as a core.Dataset, ready
// for the experiment engine: produce once with cmd/probesim -snapshot,
// analyze many with cmd/analyze -snapshot.
func Open(path string) (core.Dataset, error) {
	p, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	ds, err := p.Dataset()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ds, nil
}
