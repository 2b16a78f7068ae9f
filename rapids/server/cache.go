package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"

	"repro/internal/metrics"
	"repro/rapids"
	"repro/rapids/server/store"
)

// cacheKey digests a request into the content hash the result cache is
// indexed by: the circuit source (benchmark name, or netlist text plus
// parsed format), the default-filled placement spec, and the
// *canonical* option spec (NewSpec of the expanded options, so
// differently-spelled defaults collapse). Workers is excluded: results
// are bit-identical at every worker count (DESIGN.md §3a), so scoring
// parallelism must not fragment the cache. Like Workers, a deadline
// never changes a *completed* Result — runs it interrupts are never
// cached — so TimeoutMS is excluded too. Regions enters only as
// "rounds or not": every n > 1 runs the same rounds and gives the same
// Result, so all of them share one key. Everything else — clock,
// strategy, iters, window, verify rounds — changes the Result and is
// part of the key.
func cacheKey(req JobRequest, format rapids.Format) string {
	spec := rapids.NewSpec(req.Options.Options()...)
	spec.Workers, spec.TimeoutMS = 0, 0
	if spec.Regions > 1 {
		spec.Regions = 2
	}
	var place PlaceSpec
	if req.Place != nil {
		place = *req.Place
	}
	canon := struct {
		Generate string      `json:"generate,omitempty"`
		Netlist  string      `json:"netlist,omitempty"`
		Format   string      `json:"format,omitempty"`
		Place    PlaceSpec   `json:"place"`
		Options  rapids.Spec `json:"options"`
	}{
		Generate: req.Generate,
		Netlist:  req.Netlist,
		Place:    place.withDefaults(),
		Options:  spec,
	}
	if req.Netlist != "" {
		// Auto parses as BLIF for inline payloads (no file name to
		// dispatch on), so the two spellings share one key.
		if format == rapids.FormatAuto {
			format = rapids.FormatBLIF
		}
		canon.Format = format.String()
	}
	b, err := json.Marshal(canon)
	if err != nil {
		// Only unmarshalable types could fail here, and canon has none.
		panic("server: cache key encoding: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tier is one level of the result path: the local bounded store.Mem
// (the LRU, sized by Config.CacheCap), then the optional shared
// Config.Store. Both speak store.Store, so one Get/Put loop and one
// checksum (store.Entry.Sum) serve them; a tier differs only in its
// counters and in whether its failures degrade the shared store.
type tier struct {
	store.Store
	name                      string // log prefix
	outcome                   string // submission outcome of a hit here
	shared                    bool   // Config.Store: errors degrade, successes heal, puts count
	hits, misses, corruptions *metrics.Counter
}

// newTiers orders the result tiers: local first, shared behind it.
// A negative CacheCap means no local tier.
func newTiers(cfg Config, m *serverMetrics) (*store.Mem, []tier) {
	var local *store.Mem
	var tiers []tier
	if cfg.CacheCap > 0 {
		local = store.NewMem(cfg.CacheCap)
		local.OnEvict = m.cacheEvictions.Inc
		tiers = append(tiers, tier{Store: local, name: "cache", outcome: outcomeCacheHit,
			hits: m.cacheHits, misses: m.cacheMisses, corruptions: m.cacheCorruptions})
	}
	if cfg.Store != nil {
		tiers = append(tiers, tier{Store: cfg.Store, name: "store", outcome: outcomeStoreHit, shared: true,
			hits: m.storeHits, misses: m.storeMisses, corruptions: m.storeCorruptions})
	}
	return local, tiers
}

// lookupResult reads the tiers in order. A hit returns the entry, its
// decoded Result, and the submission outcome it counts as
// (outcomeCacheHit / outcomeStoreHit), and is promoted into every
// earlier tier so the next lookup stays local. A corrupt entry is
// dropped by its tier and the lookup falls through — a corrupt result
// is re-run, never served. A shared-store *error* (as opposed to a
// miss) is degraded mode: counted, logged, sticky for /healthz, and
// otherwise a miss — a shared-cache outage costs throughput, not
// availability (DESIGN.md §5c).
func (s *Server) lookupResult(key string) (store.Entry, *rapids.Result, string) {
	for i, t := range s.tiers {
		e, ok, err := t.Get(key)
		switch {
		case errors.Is(err, store.ErrCorrupt):
			t.corruptions.Inc()
			s.logf("%s: corrupt entry for key %s dropped", t.name, key[:8])
			continue
		case err != nil:
			s.degradeStore(err)
			continue
		case !ok:
			t.misses.Inc()
			if t.shared {
				s.healStore()
			}
			continue
		}
		res := new(rapids.Result)
		if err := json.Unmarshal(e.Result, res); err != nil {
			// Checksummed but undecodable (a foreign writer?): same
			// treatment as corruption — fall through, re-run.
			t.corruptions.Inc()
			s.logf("%s: undecodable entry for key %s: %v", t.name, key[:8], err)
			continue
		}
		t.hits.Inc()
		if t.shared {
			s.healStore()
		}
		for _, up := range s.tiers[:i] {
			s.putTier(up, e)
		}
		return e, res, t.outcome
	}
	return store.Entry{}, nil, ""
}

// publishResult seals a finished run once and writes it through every
// tier. FaultHooks.CorruptResult corrupts the local tier's sealed bytes
// only — it models a bad RAM cell in *this* replica, not a bad result,
// so the shared store still gets the pristine entry. Store failures
// degrade, they never fail the job.
func (s *Server) publishResult(key, circuit string, gates int, res *rapids.Result) {
	b, err := json.Marshal(res)
	if err != nil {
		// Result is a plain struct of marshalable fields.
		panic("server: result entry encoding: " + err.Error())
	}
	e := store.NewEntry(key, circuit, gates, b)
	for _, t := range s.tiers {
		te := e
		if h := s.cfg.Hooks; !t.shared && h != nil && h.CorruptResult != nil && h.CorruptResult(key) {
			te.Result = append(bytes.Clone(e.Result), ' ') // a byte the sum never saw
		}
		s.putTier(t, te)
	}
}

// putTier writes one entry into one tier.
func (s *Server) putTier(t tier, e store.Entry) {
	if err := t.Put(e); err != nil {
		s.degradeStore(err)
	} else if t.shared {
		s.metrics.storePuts.Inc()
		s.healStore()
	}
}

// degradeStore records a shared-store failure: counted, logged, and
// sticky for /healthz. Deliberately *not* surfaced by /readyz — N
// replicas sharing one store must not all turn unready because the
// store is down; each keeps serving from its local tier and re-runs
// what it cannot find (the degraded-mode contract, DESIGN.md §5c).
func (s *Server) degradeStore(err error) {
	s.metrics.storeDegraded.Inc()
	s.smu.Lock()
	s.storeErr = err
	s.smu.Unlock()
	s.logf("store: degraded: %v", err)
}

// healStore clears the sticky store error after a successful
// operation, so /healthz self-heals like the journal status does.
func (s *Server) healStore() {
	s.smu.Lock()
	s.storeErr = nil
	s.smu.Unlock()
}

func (s *Server) storeStatus() error {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.storeErr
}
