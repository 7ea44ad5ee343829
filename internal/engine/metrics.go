package engine

import "aggview/internal/obs"

// evMetrics is the engine's metric handles, resolved once per registry
// (obs.Metrics.Handles) rather than by name (registry mutex plus a map
// lookup) at each use: an Evaluator serves one operation, so resolving
// them per evaluator would pay thirty lookups a read. Every handle of a
// nil registry is nil, and a nil handle is a no-op.
type evMetrics struct {
	src *obs.Metrics

	// Deterministic: byte-identical at every worker count.
	exec, projectRows, cacheHit, cacheMiss *obs.Counter
	scanRows, scanKept, aggRows, aggGroups *obs.Counter
	scanChunks, scanSkipped                *obs.Counter
	aggDirect, aggHashed                   *obs.Counter // morsels grouped through the direct table / a hash index
	joinProbe, joinRows                    *obs.Counter
	joinDirect, joinHashed                 *obs.Counter // keyed joins numbering keys by direct address / by hashing
	joinLookups                            *obs.Counter // keyed joins whose laid-out side has distinct keys
	joinBuildRows                          *obs.Histogram
	// Rows the exported entry points returned, and the cells of them
	// ExecContext boxed into tuples (ExecColumns boxes none).
	resultRows, cellsBoxed *obs.Counter

	// Volatile: timings, pool activity, abort counts.
	execNs, scanNs, joinNs, aggNs                    *obs.Counter
	poolSerial, poolLaunches, poolWidth, poolMorsels *obs.Counter
	errBudget, errCanceled                           *obs.Counter
}

var noMetrics evMetrics

// evMetricsKey keys the engine's handles in a registry.
type evMetricsKey struct{}

// metrics returns the handles for ev.Metrics: the registry's, looked up
// on first use (and again should the field be pointed at another
// registry).
func (ev *Evaluator) metrics() *evMetrics {
	m := ev.Metrics
	if m == nil {
		return &noMetrics
	}
	if mt := ev.mt.Load(); mt != nil && mt.src == m {
		return mt
	}
	mt := m.Handles(evMetricsKey{}, newEvMetrics).(*evMetrics)
	ev.mt.Store(mt)
	return mt
}

func newEvMetrics(m *obs.Metrics) any {
	return &evMetrics{
		src:           m,
		exec:          m.Counter("engine.exec"),
		projectRows:   m.Counter("engine.project.rows"),
		cacheHit:      m.Counter("engine.view_cache.hit"),
		cacheMiss:     m.Counter("engine.view_cache.miss"),
		scanRows:      m.Counter("engine.scan.rows"),
		scanKept:      m.Counter("engine.scan.kept"),
		scanChunks:    m.Counter("engine.scan.chunks"),
		scanSkipped:   m.Counter("engine.scan.chunks_skipped"),
		aggRows:       m.Counter("engine.agg.rows"),
		aggGroups:     m.Counter("engine.agg.groups"),
		aggDirect:     m.Counter("engine.agg.morsels_direct"),
		aggHashed:     m.Counter("engine.agg.morsels_hashed"),
		joinDirect:    m.Counter("engine.join.keys_direct"),
		joinHashed:    m.Counter("engine.join.keys_hashed"),
		joinLookups:   m.Counter("engine.join.lookups"),
		joinProbe:     m.Counter("engine.join.probe"),
		joinRows:      m.Counter("engine.join.rows"),
		joinBuildRows: m.Histogram("engine.join.build_rows"),
		resultRows:    m.Counter("engine.result.rows"),
		cellsBoxed:    m.Counter("engine.result.cells_boxed"),
		execNs:        m.Volatile("engine.exec.ns"),
		scanNs:        m.Volatile("engine.scan.ns"),
		joinNs:        m.Volatile("engine.join.ns"),
		aggNs:         m.Volatile("engine.agg.ns"),
		poolSerial:    m.Volatile("engine.pool.serial"),
		poolLaunches:  m.Volatile("engine.pool.launches"),
		poolWidth:     m.Volatile("engine.pool.width"),
		poolMorsels:   m.Volatile("engine.pool.morsels"),
		errBudget:     m.Volatile("engine.err.budget"),
		errCanceled:   m.Volatile("engine.err.canceled"),
	}
}
