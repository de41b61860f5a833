// Package central implements the centralized update store of §5.2.1 on top
// of the reldb relational engine (standing in for the commercial RDBMS the
// paper used). An epoch sequence timestamps each published batch; because
// publishing is not instantaneous, each peer records when it starts and
// finishes publishing, and a reconciling peer uses the latest epoch not
// preceded by an unfinished epoch as its reconciliation point. Trust
// predicates and update extensions are evaluated inside the store, so only
// relevant transactions travel to the client.
//
// # Concurrency
//
// The store is sharded so concurrent publishers and reconcilers do not
// contend on a single lock (see docs/ARCHITECTURE.md and docs/STORAGE.md):
//
//   - Epoch allocation takes the only global write lock (epochMu) for a
//     short, normally memory-only critical section: epoch numbers are
//     handed out from a pre-allocated block, and the durable sequence
//     commit that claims the next block runs once every epochBlock
//     publishes (WithEpochBlock; block size 1 restores a durable commit
//     per publish).
//   - The stable-epoch frontier is maintained incrementally: every epoch
//     finish advances it through consecutively finished epochs, so
//     reconcilers read it from a single atomic — O(1) instead of a scan
//     over all epochs.
//   - Each open epoch carries its own mutex; since an epoch is owned by
//     exactly one publisher, payload encoding and cache warming — the
//     expensive parts of publishing — run without excluding other peers.
//   - The transaction index is striped across txnShardCount locks keyed by
//     TxnID, so reconcilers chasing antecedents never serialize behind
//     publishers indexing new transactions.
//   - Per-peer state (trust, recno, decided sets) sits behind a per-peer
//     mutex: one peer's reconciliation never blocks another's.
//
// # Epoch-sharded tables
//
// The epochs/txns/decisions tables are split into WithTableShards(n)
// epoch-shards (default DefaultTableShards): epoch e lives entirely in the
// shard-k tables (epochs_k, txns_k, decisions_k) with k = e mod n. A
// publish commit touches only its epoch's shard, so concurrent publishes
// to different epochs write-lock disjoint reldb tables and their WAL group
// commits share flushes instead of serializing on one txns table.
// WithTableShards(1) restores the single-table locking behaviour and is
// the differential baseline. The shard count is recorded in the meta table
// at creation and adopted on reopen; directories written by the pre-shard
// layout (a plain "txns" table) cannot be migrated and fail Open with a
// version error.
//
// # Snapshots and compaction
//
// The store can serialize a global engine-state snapshot at a
// stable-epoch boundary (Snapshot, or periodically via WithSnapshotEvery)
// into the snapshots table: per registered peer, the engine state its
// decisions produce, plus the residue — transactions not yet accepted by
// every peer, whose payloads may still be needed by future extensions or
// late decisions. store.RebuildPeer then restores a peer from the
// snapshot and replays only the post-snapshot tail (ReplayFrom) instead
// of the whole history, and CompactBefore drops the publish/decision rows
// of epochs a retained snapshot has absorbed — refusing to outrun any
// peer's reconciliation frontier or the snapshot's coverage. The recovery
// contract lives in docs/RECOVERY.md; the differential matrix pins
// compaction to change storage only, never decisions.
//
// Lock order: an epoch mutex may be taken before a peer mutex (publish),
// and a peer mutex before a *finished* epoch's mutex (reconciliation
// snapshot); the two can never deadlock because an epoch is unfinished
// while publishing and only finished epochs are snapshotted. snapMu
// (serializing Snapshot/CompactBefore) is outermost and never needed by
// the publish/reconcile paths; Snapshot takes every peer mutex in sorted
// ID order — the same order RecordDecisionsBatch uses — for its brief
// copy phase. epochMu is taken after epoch/peer locks only for the brief
// frontier advance, whose critical section takes no other store lock. The
// reldb engine's per-table locks are always innermost; every multi-table
// commit touches tables in the order epochs_k → txns_k → decisions_k →
// peers → meta → snapshots → idempotency, shard indexes ascending within
// each group (the lock-order rule documented in docs/STORAGE.md); the
// idempotency table is always last, so dedup records can ride any keyed
// operation's commit.
// RecordDecisionsBatch locks its peers in sorted order and writes its
// decisions_k shards in ascending k order; CompactBefore deletes across
// whole shard groups ascending and stamps meta last.
package central

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

// OrderStride spaces the global order values of consecutive epochs; both
// store implementations assign Order = epoch*OrderStride + position so
// their orderings agree exactly.
const OrderStride = 1 << 20

// txnShardCount stripes the transaction index; a power of two so the hash
// mix below distributes evenly.
const txnShardCount = 32

// DefaultEpochBlock is the default number of epochs claimed per durable
// sequence commit (see WithEpochBlock).
const DefaultEpochBlock = 8

// DefaultTableShards is the default number of epoch-shards the
// epochs/txns/decisions tables are split into (see WithTableShards).
const DefaultTableShards = 8

// layoutVersion identifies the on-disk table layout; it is recorded in the
// meta table when a directory is created. Version 2 was the epoch-sharded
// layout; version 3 adds the snapshots table and the compacted_before meta
// key. Earlier layouts (including pre-shard directories with no meta table
// and a plain "txns" table) cannot be migrated.
const layoutVersion = 3

// Option configures Open.
type Option func(*config)

type config struct {
	epochBlock     int64
	groupCommit    bool
	tableShards    int
	shardsExplicit bool
	snapEvery      int64
	compactKeep    int64
}

func defaultConfig() config {
	return config{
		epochBlock:  DefaultEpochBlock,
		groupCommit: true,
		tableShards: DefaultTableShards,
		compactKeep: -1,
	}
}

// WithEpochBlock sets how many epoch numbers each durable sequence commit
// claims. Larger blocks amortize the allocator's commit across that many
// publishes; block size 1 restores one durable commit per epoch (the
// allocator's serial escape hatch). Epoch numbers are handed out densely
// either way — block size never changes epoch numbering, decisions, or
// stable-epoch answers, only when the allocator touches the database.
// After a crash, the unissued remainder of the current block becomes a
// permanent gap that recovery marks void (finished and empty).
func WithEpochBlock(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.epochBlock = int64(n)
	}
}

// WithSerialCommit disables group commit: every database commit appends
// its own WAL record — the serial escape hatch the differential tests pin
// group commit against.
//
// By default the backing database batches concurrent commits through its
// WAL group-commit path with no gathering window: a flush carries whatever
// has queued by the time its leader runs, so an idle store pays no added
// latency. Flush groups form across commits on disjoint tables: with the
// epoch-sharded layout (WithTableShards), concurrent publishes to epochs in
// different shards share flushes instead of serializing.
func WithSerialCommit() Option {
	return func(c *config) { c.groupCommit = false }
}

// WithTableShards sets how many epoch-shards the epochs/txns/decisions
// tables are split into. Epoch e lives in shard e mod n, so publishes to
// different epochs commit against disjoint tables and overlap across
// cores; n = 1 restores the single-table locking behaviour (the
// differential baseline). Sharding changes the physical layout only —
// epoch numbering, decisions, stable-epoch answers, and recovery are
// bit-identical at every shard count.
//
// The shard count is fixed when the directory is created (it determines
// which table holds each epoch) and recorded in the meta table; reopening
// an existing directory adopts the recorded count, and passing an
// explicit, different WithTableShards to such a directory is an error.
func WithTableShards(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.tableShards = n
		c.shardsExplicit = true
	}
}

// WithSnapshotEvery enables automatic snapshots: after a publish moves the
// stable epoch n or more epochs past the retained snapshot, the publishing
// call takes a fresh one (Store.Snapshot). n <= 0 (the default) disables
// the automatism; Snapshot stays available on demand either way. Automatic
// maintenance is best-effort: its failures never fail the publish that
// triggered it.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapEvery = int64(n) }
}

// WithCompactKeep enables automatic compaction after each automatic
// snapshot (so it only takes effect together with WithSnapshotEvery): the
// publish log is compacted to keep epochs below the allowed horizon — the
// minimum of the snapshot epoch and every peer's reconciliation frontier.
// keep = 0 compacts as far as the safety invariants allow; negative (the
// default) never compacts automatically. CompactBefore stays available on
// demand either way.
func WithCompactKeep(keep int) Option {
	return func(c *config) { c.compactKeep = int64(keep) }
}

// Store is the centralized update store.
type Store struct {
	db       *reldb.DB
	schema   *core.Schema
	counters *metrics.StoreCounters

	// ns is the group-namespace prefix every table and sequence name
	// carries ("" for a single-tenant store opened with Open). Tenant
	// stores opened through a Node share one reldb database; because each
	// tenant touches only its own prefixed tables, reldb's per-table locks
	// keep tenants fully parallel while their commits share WAL group
	// flushes. ownsDB records whether Close may close the database (a
	// tenant's database belongs to its Node).
	ns     string
	ownsDB bool

	// Namespaced fixed table and sequence names, precomputed at open.
	metaTab  string
	peersTab string
	snapsTab string
	idemTab  string
	trustTab string
	epochSeq string

	// tableShards is the epoch-shard count; epoch e lives in the shard-k
	// tables below with k = e mod tableShards. The per-shard table names
	// are precomputed at open.
	tableShards  int
	epochsTab    []string
	txnsTab      []string
	decisionsTab []string

	// epochMu guards the epoch registry (epochs, maxE) and the allocator
	// block (blockNext, blockEnd). Exclusive only for the short allocation
	// and frontier-advance critical sections; shared for lookups.
	epochMu sync.RWMutex
	epochs  map[core.Epoch]*epochMeta
	maxE    core.Epoch

	// epochBlock is how many epoch numbers each durable sequence commit
	// claims; [blockNext, blockEnd] is the unissued remainder.
	epochBlock int64
	blockNext  core.Epoch
	blockEnd   core.Epoch

	// stableE is the incrementally maintained stable-epoch frontier: the
	// latest epoch not preceded by an unfinished allocated epoch. Advanced
	// under epochMu on every epoch finish, read lock-free.
	stableE atomic.Int64

	// shards stripe the TxnID → entry index.
	shards [txnShardCount]txnShard

	// peersMu guards the peer registry map only; per-peer state is behind
	// each peerMeta's own mutex.
	peersMu sync.RWMutex
	peers   map[core.PeerID]*peerMeta

	// trustMu serializes registrations. Only registration adds peers or
	// writes a peerMeta's trust and prio after recovery, so under trustMu
	// both may be read without peersMu or the peer's mutex.
	trustMu sync.Mutex
	// trustGraph resolves registered textual policies' delegations into
	// each peer's effective, compiled trust. Registration (and recovery)
	// feed it; peerMeta.trust always holds the resolved form. It resolves
	// under trustMu alone — no store lock — and registration then swaps
	// each changed peer's trust under that peer's mutex.
	trustGraph *trust.Graph

	// snapMu serializes Snapshot and CompactBefore against each other; it
	// is the outermost store lock (never taken while holding any other) and
	// is never needed by the publish/reconcile paths.
	snapMu sync.Mutex
	// snapState caches what the snapshots table and the compacted_before
	// meta key record: the retained snapshot's epoch, its per-peer
	// decision-sequence high-water marks and coverage, and the compaction
	// horizon.
	snapState struct {
		mu        sync.RWMutex
		epoch     core.Epoch
		hw        map[core.PeerID]int64
		covered   map[core.PeerID]bool
		residue   map[core.TxnID]bool
		compacted core.Epoch
	}
	// snapEvery/compactKeep hold the automatic-maintenance policy
	// (WithSnapshotEvery, WithCompactKeep; compactKeep < 0 = off).
	snapEvery   int64
	compactKeep int64

	// idemMu guards the idempotency-key map (see idempotency.go): in-flight
	// and completed keyed operations. Held only for map access, never
	// across an operation.
	idemMu sync.Mutex
	idem   map[store.IdempotencyKey]*idemEntry

	// watchMu guards the subscription registry and the frontier-advance
	// broadcast channel (see watch.go). It is a leaf lock: taken briefly for
	// registry/channel access, never while acquiring any other store lock.
	watchMu     sync.Mutex
	watchSignal chan struct{}
	watchers    map[*watchSub]struct{}
	// watchDone is closed by Close so subscription goroutines whose
	// consumers never cancel still terminate with the store.
	watchDone   chan struct{}
	watchClosed bool
}

type txnShard struct {
	mu sync.RWMutex
	m  map[core.TxnID]*entry
}

type entry struct {
	pub   store.PublishedTxn
	epoch core.Epoch
}

type epochMeta struct {
	peer core.PeerID
	// finished flips exactly once, after every transaction of the epoch is
	// durably recorded and indexed; the stable-epoch scan reads it
	// lock-free.
	finished atomic.Bool
	// mu guards txns and serializes writes into this epoch. An epoch is
	// owned by one publisher, so this is the per-peer publish shard.
	mu   sync.Mutex
	txns []core.TxnID
}

// txnIDs returns the epoch's transaction list. Once finished flips the
// list is immutable and the atomic load orders this read after the final
// append, so readers of finished epochs (every reconciliation window)
// take no lock and make no copy.
func (em *epochMeta) txnIDs() []core.TxnID {
	if em.finished.Load() {
		return em.txns
	}
	em.mu.Lock()
	ids := append([]core.TxnID(nil), em.txns...)
	em.mu.Unlock()
	return ids
}

type peerMeta struct {
	// mu serializes this peer's publishes, reconciliations, and decision
	// recording against each other — and nothing else.
	mu    sync.Mutex
	trust core.Trust
	// prio memoizes transaction priorities by author set under the
	// peer's current effective trust; rebuilt whenever trust changes.
	// Guarded by mu like the candidate paths that read it.
	prio      *core.PriorityCache
	lastEpoch core.Epoch
	recno     int
	decided   map[core.TxnID]core.Decision
	// decidedSeq orders the peer's decisions: the valid replay order for
	// reconstruction (store.Replayer).
	decidedSeq map[core.TxnID]int64
	nextSeq    int64
}

// recordDecisionLocked updates the decision caches.
func (pm *peerMeta) recordDecisionLocked(id core.TxnID, d core.Decision) int64 {
	pm.nextSeq++
	pm.decided[id] = d
	pm.decidedSeq[id] = pm.nextSeq
	return pm.nextSeq
}

// Open creates (or recovers) a store. dir == "" keeps everything in
// memory. By default the backing database batches concurrent commits
// through the WAL group-commit path and the epoch allocator claims
// DefaultEpochBlock epochs per durable sequence commit; see WithEpochBlock
// and WithSerialCommit.
func Open(schema *core.Schema, dir string, opts ...Option) (*Store, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	db, err := reldb.Open(reldb.Options{Dir: dir, GroupCommit: cfg.groupCommit})
	if err != nil {
		return nil, err
	}
	s, err := openOn(db, schema, "", true, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

// openOn builds a store over an existing database under the given
// namespace prefix. ownsDB decides whether Close closes the database: the
// single-tenant Open owns its database, a Node's tenants do not.
func openOn(db *reldb.DB, schema *core.Schema, ns string, ownsDB bool, cfg config) (*Store, error) {
	s := &Store{
		db:          db,
		schema:      schema,
		counters:    &metrics.StoreCounters{},
		ns:          ns,
		ownsDB:      ownsDB,
		metaTab:     ns + "meta",
		peersTab:    ns + "peers",
		snapsTab:    ns + "snapshots",
		idemTab:     ns + "idempotency",
		trustTab:    ns + "trust",
		epochSeq:    ns + "epoch",
		epochs:      make(map[core.Epoch]*epochMeta),
		peers:       make(map[core.PeerID]*peerMeta),
		trustGraph:  trust.NewGraph(schema),
		epochBlock:  cfg.epochBlock,
		snapEvery:   cfg.snapEvery,
		compactKeep: cfg.compactKeep,
		idem:        make(map[store.IdempotencyKey]*idemEntry),
		watchSignal: make(chan struct{}),
		watchers:    make(map[*watchSub]struct{}),
		watchDone:   make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i].m = make(map[core.TxnID]*entry)
	}
	if err := s.initTables(cfg); err != nil {
		return nil, err
	}
	if err := s.loadCaches(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustOpenMemory opens an in-memory store or panics.
func MustOpenMemory(schema *core.Schema) *Store {
	s, err := Open(schema, "")
	if err != nil {
		panic(err)
	}
	return s
}

// Close terminates open watch subscriptions and, for a store that owns its
// database (opened with Open), closes it. A tenant store opened through a
// Node leaves the shared database to the Node.
func (s *Store) Close() error {
	s.watchMu.Lock()
	if !s.watchClosed {
		s.watchClosed = true
		close(s.watchDone)
	}
	s.watchMu.Unlock()
	if !s.ownsDB {
		return nil
	}
	return s.db.Close()
}

// Metrics exposes the store's concurrency counters: publish volume, lock
// contention (including per-shard publish overlap), and decision-batch
// shape.
func (s *Store) Metrics() *metrics.StoreCounters { return s.counters }

// TableShards returns the epoch-shard count of the store's table layout
// (fixed at directory creation; see WithTableShards).
func (s *Store) TableShards() int { return s.tableShards }

// DBMetrics exposes the backing storage engine's commit and contention
// counters (group-commit flush economy, table-lock waits).
func (s *Store) DBMetrics() *metrics.DBCounters { return s.db.Metrics() }

// shard returns the index stripe owning id (FNV-1a over origin and seq).
func (s *Store) shard(id core.TxnID) *txnShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id.Origin); i++ {
		h ^= uint64(id.Origin[i])
		h *= 1099511628211
	}
	h ^= id.Seq
	h *= 1099511628211
	return &s.shards[h%txnShardCount]
}

// lookup returns the indexed entry for id, or nil.
func (s *Store) lookup(id core.TxnID) *entry {
	sh := s.shard(id)
	sh.mu.RLock()
	en := sh.m[id]
	sh.mu.RUnlock()
	return en
}

// index adds an entry to its stripe.
func (s *Store) index(en *entry) {
	sh := s.shard(en.pub.Txn.ID)
	sh.mu.Lock()
	sh.m[en.pub.Txn.ID] = en
	sh.mu.Unlock()
}

// peer resolves a registered peer.
func (s *Store) peer(peer core.PeerID) (*peerMeta, error) {
	s.peersMu.RLock()
	pm := s.peers[peer]
	s.peersMu.RUnlock()
	if pm == nil {
		return nil, fmt.Errorf("%w: %s", store.ErrUnknownPeer, peer)
	}
	return pm, nil
}

// epoch resolves a registered epoch.
func (s *Store) epoch(e core.Epoch) *epochMeta {
	s.epochMu.RLock()
	em := s.epochs[e]
	s.epochMu.RUnlock()
	return em
}

// lockContended acquires mu, bumping the contention counter when the
// fast-path TryLock fails — the signal surfaced by Metrics().
func lockContended(mu *sync.Mutex, onWait func()) {
	if mu.TryLock() {
		return
	}
	onWait()
	mu.Lock()
}

// shardOf returns the epoch-shard index owning epoch e.
func (s *Store) shardOf(e core.Epoch) int {
	return int(uint64(e) % uint64(s.tableShards))
}

// decisionShard routes a decision row to the shard of the decided
// transaction's epoch — the same shard its publish self-accepts used, so
// every row about one transaction lives in one table. A decision for a
// transaction this store never indexed (unreachable through the public
// API, which only decides delivered candidates) falls back to shard 0.
func (s *Store) decisionShard(id core.TxnID) int {
	if en := s.lookup(id); en != nil {
		return s.shardOf(en.epoch)
	}
	return 0
}

// resolveLayout decides the shard count: a fresh directory uses the
// configured count; an existing sharded directory has it recorded in the
// meta table and Open adopts it (an explicit, conflicting WithTableShards
// is an error, since the count determines which table holds each epoch).
// Pre-shard directories fail with a version error — same no-migration
// policy as the binary-codec break.
func (s *Store) resolveLayout(cfg config) error {
	if _, ok := s.db.TableDef(s.ns + "txns"); ok {
		return fmt.Errorf("central: store directory uses the pre-shard single-table layout; no migration path (layout version %d writes epoch-sharded tables)", layoutVersion)
	}
	shards := cfg.tableShards
	if _, ok := s.db.TableDef(s.metaTab); ok {
		var layout, stored int64
		err := s.db.View(func(tx *reldb.Tx) error {
			if r, ok, err := tx.Get(s.metaTab, reldb.Str("layout")); err != nil {
				return err
			} else if ok {
				layout = r[1].I()
			}
			if r, ok, err := tx.Get(s.metaTab, reldb.Str("table_shards")); err != nil {
				return err
			} else if ok {
				stored = r[1].I()
			}
			return nil
		})
		if err != nil {
			return err
		}
		if layout != layoutVersion {
			return fmt.Errorf("central: store directory has layout version %d, this build reads %d; no migration path", layout, layoutVersion)
		}
		if stored < 1 {
			return fmt.Errorf("central: store directory records invalid table shard count %d", stored)
		}
		if cfg.shardsExplicit && int(stored) != cfg.tableShards {
			return fmt.Errorf("central: store directory was created with %d table shards, not %d; reopen with WithTableShards(%d) or omit the option", stored, cfg.tableShards, stored)
		}
		shards = int(stored)
	}
	s.tableShards = shards
	s.epochsTab = make([]string, shards)
	s.txnsTab = make([]string, shards)
	s.decisionsTab = make([]string, shards)
	for k := 0; k < shards; k++ {
		s.epochsTab[k] = fmt.Sprintf("%sepochs_%02d", s.ns, k)
		s.txnsTab[k] = fmt.Sprintf("%stxns_%02d", s.ns, k)
		s.decisionsTab[k] = fmt.Sprintf("%sdecisions_%02d", s.ns, k)
	}
	s.counters.InitShards(shards)
	return nil
}

func (s *Store) initTables(cfg config) error {
	if err := s.resolveLayout(cfg); err != nil {
		return err
	}
	return s.db.Update(func(tx *reldb.Tx) error {
		create := func(def reldb.TableDef) error {
			if tx.HasTable(def.Name) {
				return nil
			}
			return tx.CreateTable(def)
		}
		if !tx.HasTable(s.metaTab) {
			if err := tx.CreateTable(reldb.TableDef{
				Name: s.metaTab,
				Cols: []reldb.ColDef{
					{Name: "key", Type: reldb.ColString},
					{Name: "value", Type: reldb.ColInt},
				},
				Key: []int{0},
			}); err != nil {
				return err
			}
			if err := tx.Insert(s.metaTab, reldb.Row{reldb.Str("layout"), reldb.Int(layoutVersion)}); err != nil {
				return err
			}
			if err := tx.Insert(s.metaTab, reldb.Row{reldb.Str("table_shards"), reldb.Int(int64(s.tableShards))}); err != nil {
				return err
			}
		}
		// Tables are created in the documented lock order (epochs_k, then
		// txns_k, then decisions_k, shard indexes ascending) — irrelevant at
		// open, which is single-threaded, but it keeps every multi-table
		// transaction in this package consistent with the contract.
		for k := 0; k < s.tableShards; k++ {
			if err := create(reldb.TableDef{
				Name: s.epochsTab[k],
				Cols: []reldb.ColDef{
					{Name: "epoch", Type: reldb.ColInt},
					{Name: "peer", Type: reldb.ColString},
					{Name: "finished", Type: reldb.ColBool},
				},
				Key: []int{0},
			}); err != nil {
				return err
			}
		}
		// One row per published batch, not per transaction: the payload is
		// the whole []store.PublishedTxn in one binary-codec stream
		// (store.AppendPublishedTxns).
		for k := 0; k < s.tableShards; k++ {
			if err := create(reldb.TableDef{
				Name: s.txnsTab[k],
				Cols: []reldb.ColDef{
					{Name: "ord", Type: reldb.ColInt},
					{Name: "epoch", Type: reldb.ColInt},
					{Name: "count", Type: reldb.ColInt},
					{Name: "payload", Type: reldb.ColBytes},
				},
				Key: []int{0},
				Indexes: []reldb.IndexDef{
					{Name: "by_epoch", Cols: []int{1}},
				},
			}); err != nil {
				return err
			}
		}
		for k := 0; k < s.tableShards; k++ {
			if err := create(reldb.TableDef{
				Name: s.decisionsTab[k],
				Cols: []reldb.ColDef{
					{Name: "peer", Type: reldb.ColString},
					{Name: "origin", Type: reldb.ColString},
					{Name: "seq", Type: reldb.ColInt},
					{Name: "decision", Type: reldb.ColInt},
					{Name: "dseq", Type: reldb.ColInt},
				},
				Key: []int{0, 1, 2},
			}); err != nil {
				return err
			}
		}
		if err := create(reldb.TableDef{
			Name: s.peersTab,
			Cols: []reldb.ColDef{
				{Name: "peer", Type: reldb.ColString},
				{Name: "last_epoch", Type: reldb.ColInt},
				{Name: "recno", Type: reldb.ColInt},
			},
			Key: []int{0},
		}); err != nil {
			return err
		}
		// One row: the retained global engine-state snapshot (binary codec,
		// store.AppendSnapshot). Each Snapshot() commit atomically replaces
		// it; a torn commit rolls back whole, so the previous snapshot (and
		// the publish log) are never voided by a crash mid-snapshot.
		if err := create(reldb.TableDef{
			Name: s.snapsTab,
			Cols: []reldb.ColDef{
				{Name: "epoch", Type: reldb.ColInt},
				{Name: "payload", Type: reldb.ColBytes},
			},
			Key: []int{0},
		}); err != nil {
			return err
		}
		// One row per idempotency-keyed operation that committed: the key,
		// the operation, and its memoized result (see idempotency.go). Rows
		// are written inside the keyed operation's own commit, so a crash
		// can never separate an operation from its dedup record. Created
		// conditionally: directories from before this table gain it on
		// reopen with no layout break.
		if err := create(reldb.TableDef{
			Name: s.idemTab,
			Cols: []reldb.ColDef{
				{Name: "key", Type: reldb.ColString},
				{Name: "op", Type: reldb.ColString},
				{Name: "r1", Type: reldb.ColInt},
				{Name: "r2", Type: reldb.ColInt},
				{Name: "r3", Type: reldb.ColInt},
			},
			Key: []int{0},
		}); err != nil {
			return err
		}
		// One row per peer whose trust policy is textual (*trust.Policy):
		// the policy source, so recovery restores it and the store serves
		// reconciliations after a restart without waiting for peers to
		// re-register. In-process predicate policies cannot be persisted;
		// those peers must re-register after recovery (beginReconciliation
		// refuses them with a clear error until they do).
		return create(reldb.TableDef{
			Name: s.trustTab,
			Cols: []reldb.ColDef{
				{Name: "peer", Type: reldb.ColString},
				{Name: "policy", Type: reldb.ColString},
			},
			Key: []int{0},
		})
	})
}

// loadCaches rebuilds the in-memory indexes from the tables after recovery.
// Open is single-threaded, so no store locks are taken here.
func (s *Store) loadCaches() error {
	err := s.db.View(func(tx *reldb.Tx) error {
		for k := 0; k < s.tableShards; k++ {
			if err := tx.Scan(s.epochsTab[k], func(r reldb.Row) bool {
				e := core.Epoch(r[0].I())
				em := &epochMeta{peer: core.PeerID(r[1].S())}
				em.finished.Store(r[2].B())
				s.epochs[e] = em
				if e > s.maxE {
					s.maxE = e
				}
				return true
			}); err != nil {
				return err
			}
		}
		// The durable sequence is the allocator's block high-water mark.
		// Epochs up to it that never reached a durable publish commit —
		// the unissued block remainder, or allocations whose publishes
		// died with the previous process — can never carry transactions
		// now; register them as void (finished, empty) so the stable
		// frontier passes over the gaps. Allocation resumes with a fresh
		// block above the high-water mark.
		seqHW := core.Epoch(tx.CurrentSeq(s.epochSeq))
		for e := core.Epoch(1); e <= seqHW; e++ {
			if _, ok := s.epochs[e]; !ok {
				em := &epochMeta{}
				em.finished.Store(true)
				s.epochs[e] = em
			}
		}
		if seqHW > s.maxE {
			s.maxE = seqHW
		}
		s.blockNext, s.blockEnd = seqHW+1, seqHW
		var scanErr error
		var recovered []*entry
		for k := 0; k < s.tableShards; k++ {
			if err := tx.Scan(s.txnsTab[k], func(r reldb.Row) bool {
				batch, err := store.DecodePublishedTxns(r[3].Raw())
				if err != nil {
					scanErr = err
					return false
				}
				for _, pub := range batch {
					// Decoding drops the unexported caches; re-warm before
					// the recovered transactions are shared across
					// reconciling peers.
					pub.Txn.PrecomputeEncodings(s.schema)
					recovered = append(recovered, &entry{pub: pub, epoch: core.Epoch(r[1].I())})
				}
				return true
			}); err != nil {
				return err
			}
			if scanErr != nil {
				return scanErr
			}
		}
		sort.Slice(recovered, func(i, j int) bool {
			return recovered[i].pub.Txn.Order < recovered[j].pub.Txn.Order
		})
		for _, en := range recovered {
			s.index(en)
			if em := s.epochs[en.epoch]; em != nil {
				em.txns = append(em.txns, en.pub.Txn.ID)
			}
		}
		if err := tx.Scan(s.peersTab, func(r reldb.Row) bool {
			s.peers[core.PeerID(r[0].S())] = &peerMeta{
				lastEpoch:  core.Epoch(r[1].I()),
				recno:      int(r[2].I()),
				decided:    make(map[core.TxnID]core.Decision),
				decidedSeq: make(map[core.TxnID]int64),
			}
			return true
		}); err != nil {
			return err
		}
		// Restore persisted textual trust policies. Peers registered with
		// in-process predicate policies have no row here and stay
		// trust-less until they re-register. Every row is parsed before
		// any policy is resolved: a policy may delegate to a peer whose
		// row scans later, and per-row resolution would bind incomplete
		// closures.
		recoveredTrust := make(map[core.PeerID]core.Trust)
		if err := tx.Scan(s.trustTab, func(r reldb.Row) bool {
			if s.peers[core.PeerID(r[0].S())] == nil {
				return true
			}
			p, err := trust.Parse(r[1].S())
			if err != nil {
				scanErr = fmt.Errorf("central: peer %s persisted trust policy: %w", r[0].S(), err)
				return false
			}
			recoveredTrust[core.PeerID(r[0].S())] = p.WithSchema(s.schema)
			return true
		}); err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		// One bulk load resolves each recovered policy exactly once, in
		// any row order.
		s.trustGraph.Load(recoveredTrust)
		for peer := range recoveredTrust {
			pm := s.peers[peer]
			pm.trust = s.trustGraph.Effective(peer)
			pm.prio = core.NewPriorityCache(pm.trust)
		}
		for k := 0; k < s.tableShards; k++ {
			if err := tx.Scan(s.decisionsTab[k], func(r reldb.Row) bool {
				pm := s.peers[core.PeerID(r[0].S())]
				if pm == nil {
					return true
				}
				id := core.TxnID{Origin: core.PeerID(r[1].S()), Seq: uint64(r[2].I())}
				pm.decided[id] = core.Decision(r[3].I())
				pm.decidedSeq[id] = r[4].I()
				if r[4].I() > pm.nextSeq {
					pm.nextSeq = r[4].I()
				}
				return true
			}); err != nil {
				return err
			}
		}
		if r, ok, err := tx.Get(s.metaTab, reldb.Str("compacted_before")); err != nil {
			return err
		} else if ok {
			s.snapState.compacted = core.Epoch(r[1].I())
		}
		return s.loadIdem(tx)
	})
	if err != nil {
		return err
	}
	if err := s.loadSnapshotState(); err != nil {
		return err
	}
	s.advanceFrontier()
	return nil
}

// loadSnapshotState rebuilds the snapshot-derived caches after recovery:
// the retained snapshot's epoch, per-peer decision high-water marks and
// coverage, the residue entries (whose payloads exist only in the snapshot
// once their epochs are compacted), and each peer's decision-sequence
// floor. Open is single-threaded, so no store locks are taken here.
func (s *Store) loadSnapshotState() error {
	snap, err := s.LatestSnapshot(context.Background())
	if err != nil {
		return err
	}
	if snap == nil {
		if s.snapState.compacted > 0 {
			return fmt.Errorf("central: directory compacted through epoch %d but retains no snapshot", s.snapState.compacted)
		}
		return nil
	}
	s.snapState.epoch = snap.Epoch
	s.snapState.hw = make(map[core.PeerID]int64, len(snap.Peers))
	s.snapState.covered = make(map[core.PeerID]bool, len(snap.Peers))
	s.snapState.residue = make(map[core.TxnID]bool, len(snap.Residue))
	for i := range snap.Residue {
		s.snapState.residue[snap.Residue[i].Txn.ID] = true
	}
	for i := range snap.Peers {
		ps := &snap.Peers[i]
		s.snapState.hw[ps.Engine.Peer] = ps.DecisionSeq
		s.snapState.covered[ps.Engine.Peer] = true
		// Decision sequences must keep ascending past what the snapshot
		// folded in, even when compaction dropped every durable decision
		// row of a peer.
		if pm := s.peers[ps.Engine.Peer]; pm != nil && ps.DecisionSeq > pm.nextSeq {
			pm.nextSeq = ps.DecisionSeq
		}
	}
	for i := range snap.Residue {
		pub := snap.Residue[i]
		if s.lookup(pub.Txn.ID) == nil {
			s.index(&entry{pub: pub, epoch: pub.Txn.Epoch})
		}
	}
	return nil
}

// RegisterPeer implements store.Store. Re-registering an existing peer
// (e.g. after recovery, or to change trust mid-stream) replaces its trust
// policy and keeps its history. Textual policies (*trust.Policy) are
// persisted alongside the peer row so a recovered store serves
// reconciliations without re-registration; in-process predicate policies
// cannot travel into the directory, so any previously persisted text is
// dropped rather than left to resurrect an outdated policy on the next
// recovery.
//
// The textual form stays the durable format; what registration installs
// is the policy's *effective* decision program, resolved through the
// store's trust graph. Delegations must name peers this store already
// knows. Re-registration rebuilds only the participants whose effective
// policy can change (see trust.Graph); an edit that keeps the peer's
// delegation edges usually rebuilds the peer alone.
//
// Registrations are serialized among themselves, and resolution holds no
// store lock: publishes, reconciliations and decisions of every peer go
// on meanwhile. The results are installed copy-on-write — a new peer's
// meta under the registry lock, each rebuilt peer's trust and priority
// cache under that peer's mutex — so a reconciliation prices a window
// wholly under the old effective trust or wholly under the new.
func (s *Store) RegisterPeer(_ context.Context, peer core.PeerID, t core.Trust) error {
	s.trustMu.Lock()
	defer s.trustMu.Unlock()
	if pol, ok := t.(*trust.Policy); ok {
		if pol.Schema() == nil {
			pol.WithSchema(s.schema)
		}
		// A delegation to a peer this store has never seen would silently
		// contribute nothing; refuse it instead.
		for _, d := range pol.Delegations() {
			if d.Peer == peer {
				continue
			}
			if _, err := s.peer(d.Peer); err != nil {
				return fmt.Errorf("central: peer %s delegates to unregistered peer %s", peer, d.Peer)
			}
		}
	}
	_, err := s.peer(peer)
	known := err == nil
	err = s.db.Update(func(tx *reldb.Tx) error {
		if !known {
			if err := tx.Insert(s.peersTab, reldb.Row{reldb.Str(string(peer)), reldb.Int(0), reldb.Int(0)}); err != nil {
				return err
			}
		}
		if p, ok := t.(*trust.Policy); ok {
			return tx.Upsert(s.trustTab, reldb.Row{reldb.Str(string(peer)), reldb.Str(p.String())})
		}
		_, err := tx.Delete(s.trustTab, reldb.Str(string(peer)))
		return err
	})
	if err != nil {
		return err
	}
	before := s.trustGraph.TotalRecompiles()
	affected := s.trustGraph.Set(peer, t)
	if !known {
		eff := s.trustGraph.Effective(peer)
		s.peersMu.Lock()
		s.peers[peer] = &peerMeta{
			trust:      eff,
			prio:       core.NewPriorityCache(eff),
			decided:    make(map[core.TxnID]core.Decision),
			decidedSeq: make(map[core.TxnID]int64),
		}
		s.peersMu.Unlock()
	}
	for _, ap := range affected {
		pm, err := s.peer(ap)
		if err != nil {
			continue
		}
		eff := s.trustGraph.Effective(ap)
		if _, ok := eff.(*trust.Policy); ok && pm.trust == eff {
			continue // not rebuilt: the priority cache stays valid
		}
		pm.mu.Lock()
		pm.trust = eff
		pm.prio = core.NewPriorityCache(eff)
		pm.mu.Unlock()
	}
	s.counters.ObserveTrustRecompiles(s.trustGraph.TotalRecompiles() - before)
	return nil
}

// EffectiveTrust implements store.TrustResolver: it returns the peer's
// resolved, compiled trust — its own rules merged with every delegation
// closure member's capped rules.
func (s *Store) EffectiveTrust(_ context.Context, peer core.PeerID) (core.Trust, error) {
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	if _, ok := s.peers[peer]; !ok {
		return nil, fmt.Errorf("central: unknown peer %s", peer)
	}
	return s.trustGraph.Effective(peer), nil
}

// PublishBegin allocates an epoch and records that the peer has started
// publishing into it. Exposed separately so tests and the failure-injection
// benchmarks can hold an epoch open.
func (s *Store) PublishBegin(peer core.PeerID) (core.Epoch, error) {
	if _, err := s.peer(peer); err != nil {
		return 0, err
	}
	return s.allocEpoch(peer)
}

// allocEpoch is the publish path's single global critical section, and it
// is normally memory-only: epoch numbers come from a pre-claimed block,
// and the durable sequence commit runs once per epochBlock allocations.
// The epoch becomes durable with its first publish commit (publishWrite
// writes the epochs row in the same transaction as the batch); an epoch
// that dies between allocation and its first commit leaves no durable
// trace and is voided by recovery. Everything expensive — payload
// encoding, cache warming, indexing — happens outside this lock, under
// per-epoch and per-peer locks.
func (s *Store) allocEpoch(peer core.PeerID) (core.Epoch, error) {
	if !s.epochMu.TryLock() {
		s.counters.ObserveEpochContention()
		s.epochMu.Lock()
	}
	defer s.epochMu.Unlock()
	if s.blockNext > s.blockEnd {
		var end int64
		err := s.db.Update(func(tx *reldb.Tx) error {
			var err error
			end, err = tx.AdvanceSeq(s.epochSeq, s.epochBlock)
			return err
		})
		if err != nil {
			return 0, err
		}
		s.blockNext, s.blockEnd = core.Epoch(end)-core.Epoch(s.epochBlock)+1, core.Epoch(end)
	}
	epoch := s.blockNext
	s.blockNext++
	s.epochs[epoch] = &epochMeta{peer: peer}
	if epoch > s.maxE {
		s.maxE = epoch
	}
	return epoch, nil
}

// PublishWrite appends the batch's transactions under the open epoch,
// assigning global orders, and records them as accepted by the publisher.
func (s *Store) PublishWrite(peer core.PeerID, epoch core.Epoch, txns []store.PublishedTxn) error {
	return s.publishWrite(peer, epoch, txns, false, "")
}

// publishWrite is the shared write path; finish additionally marks the
// epoch complete in the same database commit (the fast path used by
// Publish, saving one commit per publish). A non-empty key records the
// publish's dedup row in the same commit.
func (s *Store) publishWrite(peer core.PeerID, epoch core.Epoch, txns []store.PublishedTxn, finish bool, key store.IdempotencyKey) error {
	em := s.epoch(epoch)
	if em == nil || em.peer != peer {
		return fmt.Errorf("central: epoch %d not open for %s", epoch, peer)
	}
	pm, err := s.peer(peer)
	if err != nil {
		return err
	}

	em.mu.Lock()
	defer em.mu.Unlock()
	if em.finished.Load() {
		return fmt.Errorf("central: epoch %d already finished", epoch)
	}
	if len(txns) == 0 {
		return nil // nothing to write; Publish never reaches here empty
	}
	// Assign orders and encode the batch before taking the peer lock or
	// the database lock: encoding is the expensive part of publishing, and
	// it runs under the per-epoch lock only, which nobody else contends
	// for. The whole batch becomes one compact binary payload
	// (store.AppendPublishedTxns — reflection-free; gob's per-encoder type
	// descriptors used to dominate the publish profile).
	base := uint64(len(em.txns))
	for i := range txns {
		pt := &txns[i]
		pt.Txn.Epoch = epoch
		pt.Txn.Order = uint64(epoch)*OrderStride + base + uint64(i)
		// Warm the encoding caches before the entries become visible:
		// BeginReconciliation hands these *Transaction pointers to every
		// peer, and concurrently reconciling engines must never lazily
		// populate a shared cache.
		pt.Txn.PrecomputeEncodings(s.schema)
	}
	payload := store.AppendPublishedTxns(nil, txns)

	lockContended(&pm.mu, s.counters.ObservePeerContention)
	defer pm.mu.Unlock()
	// One commit carries the whole publish: the epoch registration (first
	// durable trace of the epoch — allocation itself is memory-only), the
	// batch payload, and the publisher's self-accepts. The fast path also
	// finishes the epoch here. Everything lands in the epoch's shard k, in
	// the documented epochs_k → txns_k → decisions_k order — publishes to
	// epochs in other shards touch disjoint tables and commit in parallel.
	k := s.shardOf(epoch)
	s.counters.EnterShard(k)
	err = s.db.Update(func(tx *reldb.Tx) error {
		if err := tx.Upsert(s.epochsTab[k], reldb.Row{
			reldb.Int(int64(epoch)), reldb.Str(string(peer)), reldb.Bool(finish),
		}); err != nil {
			return err
		}
		if err := tx.Insert(s.txnsTab[k], reldb.Row{
			reldb.Int(int64(txns[0].Txn.Order)),
			reldb.Int(int64(epoch)),
			reldb.Int(int64(len(txns))),
			reldb.Bytes(payload),
		}); err != nil {
			return err
		}
		for i := range txns {
			pt := &txns[i]
			if err := tx.Insert(s.decisionsTab[k], reldb.Row{
				reldb.Str(string(peer)),
				reldb.Str(string(pt.Txn.ID.Origin)),
				reldb.Int(int64(pt.Txn.ID.Seq)),
				reldb.Int(int64(core.DecisionAccept)),
				reldb.Int(pm.nextSeq + int64(i) + 1),
			}); err != nil {
				return err
			}
		}
		if key != "" {
			return tx.Insert(s.idemTab, idemRow(key, opPublish, int64(epoch), 0, 0))
		}
		return nil
	})
	s.counters.LeaveShard(k)
	if err != nil {
		return err
	}
	for i := range txns {
		pt := txns[i]
		s.index(&entry{pub: pt, epoch: epoch})
		em.txns = append(em.txns, pt.Txn.ID)
		pm.recordDecisionLocked(pt.Txn.ID, core.DecisionAccept)
	}
	if finish {
		em.finished.Store(true)
		s.advanceFrontier()
	}
	return nil
}

// PublishFinish marks the epoch complete, making it visible to stable-epoch
// computation.
func (s *Store) PublishFinish(peer core.PeerID, epoch core.Epoch) error {
	em := s.epoch(epoch)
	if em == nil || em.peer != peer {
		return fmt.Errorf("central: epoch %d not open for %s", epoch, peer)
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	err := s.db.Update(func(tx *reldb.Tx) error {
		return tx.Upsert(s.epochsTab[s.shardOf(epoch)], reldb.Row{reldb.Int(int64(epoch)), reldb.Str(string(peer)), reldb.Bool(true)})
	})
	if err != nil {
		return err
	}
	em.finished.Store(true)
	s.advanceFrontier()
	return nil
}

// Publish implements store.Store: allocate an epoch, then write and finish
// in a single database commit. When automatic maintenance is configured
// (WithSnapshotEvery/WithCompactKeep), the publish that crosses the
// snapshot cadence runs it before returning. A context carrying an
// idempotency key (store.WithIdempotencyKey) makes the publish safe to
// redeliver: duplicates of a committed publish return the original epoch
// without publishing again.
func (s *Store) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	s.counters.ObservePublish()
	if _, err := s.peer(peer); err != nil {
		return 0, err
	}
	key, keyed := store.IdempotencyKeyFrom(ctx)
	if !keyed {
		return s.publish(ctx, peer, txns, "")
	}
	en, dup, err := s.beginIdem(key, opPublish)
	if err != nil {
		return 0, err
	}
	if dup {
		return en.e, nil
	}
	epoch, err := s.publish(ctx, peer, txns, key)
	en.e = epoch
	s.finishIdem(key, en, err)
	return epoch, err
}

// publish is the Publish body; a non-empty key rides the publish commit as
// a dedup record.
func (s *Store) publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn, key store.IdempotencyKey) (core.Epoch, error) {
	if len(txns) == 0 {
		// Naturally idempotent: nothing commits, so a keyed empty publish
		// memoizes in memory only.
		s.epochMu.RLock()
		defer s.epochMu.RUnlock()
		return s.maxE, nil
	}
	epoch, err := s.allocEpoch(peer)
	if err != nil {
		return 0, err
	}
	if err := s.publishWrite(peer, epoch, txns, true, key); err != nil {
		return 0, err
	}
	s.maybeMaintain(ctx)
	return epoch, nil
}

// stableEpoch returns the most recent epoch not preceded by an unfinished
// allocated epoch — a single atomic load: the frontier is maintained
// incrementally by advanceFrontier at every epoch finish instead of being
// recomputed by an O(epochs) scan per reconciliation.
func (s *Store) stableEpoch() core.Epoch {
	return core.Epoch(s.stableE.Load())
}

// advanceFrontier pushes the stable-epoch frontier through consecutively
// finished (or void) epochs. Called after every epoch finish; the critical
// section touches only the epoch registry, so taking epochMu here while
// holding epoch/peer locks cannot deadlock. Advancement is monotone and
// re-scans from the current frontier, so racing finishers converge on the
// same answer regardless of order.
func (s *Store) advanceFrontier() {
	s.epochMu.Lock()
	old := core.Epoch(s.stableE.Load())
	st := old
	for {
		em, ok := s.epochs[st+1]
		if !ok || !em.finished.Load() {
			break
		}
		st++
	}
	s.stableE.Store(int64(st))
	s.epochMu.Unlock()
	if st > old {
		s.notifyWatchers()
	}
}

// BeginReconciliation implements store.Store. Only the reconciling peer's
// own lock is held throughout, so any number of peers reconcile
// concurrently; the epoch window is read under per-epoch locks and the
// transaction index under its stripes. A context carrying an idempotency
// key makes the call safe to redeliver: a duplicate of a committed begin
// returns the original recno and window (with its candidates recomputed)
// instead of advancing the frontier again — without the key, a retried
// begin would permanently lose the first window's candidates.
func (s *Store) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	key, keyed := store.IdempotencyKeyFrom(ctx)
	if !keyed {
		return s.beginReconciliation(peer, "")
	}
	en, dup, err := s.beginIdem(key, opBegin)
	if err != nil {
		return nil, err
	}
	if dup {
		return s.replayReconciliation(peer, en)
	}
	rec, err := s.beginReconciliation(peer, key)
	if err == nil {
		en.recno, en.from, en.to = rec.Recno, rec.FromEpoch, rec.ToEpoch
	}
	s.finishIdem(key, en, err)
	return rec, err
}

func (s *Store) beginReconciliation(peer core.PeerID, key store.IdempotencyKey) (*store.Reconciliation, error) {
	pm, err := s.peer(peer)
	if err != nil {
		return nil, err
	}
	lockContended(&pm.mu, s.counters.ObservePeerContention)
	defer pm.mu.Unlock()
	// A recovered store may know the peer but not its trust policy (only
	// textual policies persist). Refuse cleanly rather than computing
	// candidate priorities against nothing: the error is permanent until
	// the peer re-registers, and no reconciliation window is consumed.
	if pm.trust == nil {
		return nil, fmt.Errorf("central: peer %s has no trust policy (re-register after recovery)", peer)
	}

	stable := s.stableEpoch()
	from := pm.lastEpoch
	if stable < from {
		stable = from
	}
	recno := pm.recno + 1
	// Record the reconciliation point immediately and commit, as §5.2.1
	// prescribes, so the epochs table is released for publishers. The dedup
	// record rides the same commit.
	err = s.db.Update(func(tx *reldb.Tx) error {
		if err := tx.Upsert(s.peersTab, reldb.Row{
			reldb.Str(string(peer)), reldb.Int(int64(stable)), reldb.Int(int64(recno)),
		}); err != nil {
			return err
		}
		if key != "" {
			return tx.Insert(s.idemTab, idemRow(key, opBegin, int64(recno), int64(from), int64(stable)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pm.lastEpoch = stable
	pm.recno = recno

	return &store.Reconciliation{
		Recno:      recno,
		FromEpoch:  from,
		ToEpoch:    stable,
		Candidates: s.candidatesLocked(pm, peer, from, stable),
	}, nil
}

// candidatesLocked walks the window (from, to] and collects the peer's
// candidates. The caller holds the peer's lock. Walking in epoch order —
// within an epoch the publish order is the global order — produces
// candidates order-sorted exactly as the single-lock implementation did.
func (s *Store) candidatesLocked(pm *peerMeta, peer core.PeerID, from, to core.Epoch) []*core.Candidate {
	var out []*core.Candidate
	for e := from + 1; e <= to; e++ {
		em := s.epoch(e)
		if em == nil {
			continue
		}
		for _, id := range em.txnIDs() {
			if id.Origin == peer {
				continue
			}
			if _, decided := pm.decided[id]; decided {
				continue
			}
			en := s.lookup(id)
			if en == nil {
				continue
			}
			x := en.pub.Txn
			prio := pm.prio.TxnPriority(x)
			if prio <= 0 {
				continue
			}
			out = append(out, &core.Candidate{
				Txn:      x,
				Priority: prio,
				Ext:      s.extension(id, pm),
			})
		}
	}
	return out
}

// replayCandidatesLocked recomputes a memoized reconciliation window's
// candidates for the dedup replay path. It applies the same filters as
// candidatesLocked but collects the window's transactions from the index
// instead of the epoch metas: a live begin always sees its window's epochs
// (compaction cannot pass the peer's own pre-begin frontier), but a
// duplicate can be delivered after those epochs were compacted to void —
// the index, which retains every snapshot-residue entry, is what still
// holds the window's undecided transactions then. Within uncompacted
// windows the two walks agree exactly: the index holds precisely the
// epochs' entries, and sorting by global order reproduces the epoch-order
// walk. The caller holds the peer's lock.
func (s *Store) replayCandidatesLocked(pm *peerMeta, peer core.PeerID, from, to core.Epoch) []*core.Candidate {
	var window []*entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, en := range sh.m {
			if en.epoch > from && en.epoch <= to {
				window = append(window, en)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(window, func(i, j int) bool { return window[i].pub.Txn.Order < window[j].pub.Txn.Order })
	var out []*core.Candidate
	for _, en := range window {
		id := en.pub.Txn.ID
		if id.Origin == peer {
			continue
		}
		if _, decided := pm.decided[id]; decided {
			continue
		}
		x := en.pub.Txn
		prio := pm.prio.TxnPriority(x)
		if prio <= 0 {
			continue
		}
		out = append(out, &core.Candidate{
			Txn:      x,
			Priority: prio,
			Ext:      s.extension(id, pm),
		})
	}
	return out
}

// extension computes the transaction extension of root for the peer: the
// antecedent closure excluding transactions the peer has accepted, sorted
// by global order. The caller holds the peer's lock.
func (s *Store) extension(root core.TxnID, pm *peerMeta) []*core.Transaction {
	visited := map[core.TxnID]bool{root: true}
	var out []*core.Transaction
	stack := []core.TxnID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		en := s.lookup(id)
		if en == nil {
			continue // antecedent from before this store's history
		}
		if id != root && pm.decided[id] == core.DecisionAccept {
			continue
		}
		out = append(out, en.pub.Txn)
		for _, a := range en.pub.Antecedents {
			if !visited[a] {
				visited[a] = true
				stack = append(stack, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// RecordDecisions implements store.Store as a single-entry batch.
func (s *Store) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	return s.RecordDecisionsBatch(ctx, []store.DecisionBatch{{
		Peer: peer, Recno: recno, Accepted: accepted, Rejected: rejected,
	}})
}

// RecordDecisionsBatch implements store.Store: every batch's decisions are
// committed in one database transaction — one round trip for a whole
// fan-out wave. Peers are locked in sorted order so concurrent batches
// cannot deadlock. A context carrying an idempotency key makes the call
// safe to redeliver: duplicates of a committed batch succeed without
// writing a second set of decision rows.
func (s *Store) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	key, keyed := store.IdempotencyKeyFrom(ctx)
	if !keyed {
		return s.recordDecisionsBatch(batches, "", 0)
	}
	en, dup, err := s.beginIdem(key, opDecide)
	if err != nil {
		return err
	}
	if dup {
		return nil
	}
	// The record's retention watermark: the current stable epoch is at or
	// above every batch peer's reconciliation frontier, and the compaction
	// horizon never passes a frontier — so the record survives at least
	// until each of those peers advances its frontier again, which a peer
	// still retrying this very call cannot do (see idempotency.go).
	wm := s.stableEpoch()
	err = s.recordDecisionsBatch(batches, key, wm)
	en.e = wm
	s.finishIdem(key, en, err)
	return err
}

func (s *Store) recordDecisionsBatch(batches []store.DecisionBatch, key store.IdempotencyKey, wm core.Epoch) error {
	if len(batches) == 0 {
		return nil
	}
	pms := make([]*peerMeta, len(batches))
	for i, b := range batches {
		pm, err := s.peer(b.Peer)
		if err != nil {
			return err
		}
		pms[i] = pm
	}
	order := make([]int, len(batches))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return batches[order[a]].Peer < batches[order[b]].Peer })
	locked := make(map[*peerMeta]bool, len(batches))
	for _, i := range order {
		if locked[pms[i]] {
			continue // same peer twice in one batch: one lock covers both
		}
		lockContended(&pms[i].mu, s.counters.ObservePeerContention)
		locked[pms[i]] = true
	}
	defer func() {
		for pm := range locked {
			pm.mu.Unlock()
		}
	}()

	total := 0
	for i, b := range batches {
		if b.Recno > pms[i].recno {
			return fmt.Errorf("central: decisions for future reconciliation %d (current %d)", b.Recno, pms[i].recno)
		}
		total += len(b.Accepted) + len(b.Rejected)
	}
	if total > 0 {
		// dseq continues each peer's sequence across the whole commit; the
		// cache update below replays the same order, keeping the durable
		// and in-memory sequences identical. Rows are assigned their seq in
		// batch order first, then written grouped by epoch-shard with the
		// shard indexes ascending — the documented decisions_k lock order,
		// so a wave's commit cannot deadlock against a concurrent publish
		// or another wave.
		type decRow struct {
			peer core.PeerID
			id   core.TxnID
			d    core.Decision
			dseq int64
		}
		perShard := make([][]decRow, s.tableShards)
		next := make(map[*peerMeta]int64, len(batches))
		for i, b := range batches {
			pm := pms[i]
			if _, ok := next[pm]; !ok {
				next[pm] = pm.nextSeq
			}
			add := func(id core.TxnID, d core.Decision) {
				next[pm]++
				k := s.decisionShard(id)
				perShard[k] = append(perShard[k], decRow{peer: b.Peer, id: id, d: d, dseq: next[pm]})
			}
			for _, id := range b.Accepted {
				add(id, core.DecisionAccept)
			}
			for _, id := range b.Rejected {
				add(id, core.DecisionReject)
			}
		}
		err := s.db.Update(func(tx *reldb.Tx) error {
			for k := 0; k < s.tableShards; k++ {
				for _, r := range perShard[k] {
					if err := tx.Upsert(s.decisionsTab[k], reldb.Row{
						reldb.Str(string(r.peer)),
						reldb.Str(string(r.id.Origin)),
						reldb.Int(int64(r.id.Seq)),
						reldb.Int(int64(r.d)),
						reldb.Int(r.dseq),
					}); err != nil {
						return err
					}
				}
			}
			if key != "" {
				return tx.Insert(s.idemTab, idemRow(key, opDecide, int64(wm), 0, 0))
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i, b := range batches {
			for _, id := range b.Accepted {
				pms[i].recordDecisionLocked(id, core.DecisionAccept)
			}
			for _, id := range b.Rejected {
				pms[i].recordDecisionLocked(id, core.DecisionReject)
			}
		}
	}
	s.counters.ObserveDecisionRoundTrip(len(batches), total)
	return nil
}

// CurrentRecno implements store.Store.
func (s *Store) CurrentRecno(_ context.Context, peer core.PeerID) (int, error) {
	pm, err := s.peer(peer)
	if err != nil {
		return 0, err
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.recno, nil
}

// Checkpoint snapshots the backing database and truncates its WAL.
func (s *Store) Checkpoint() error {
	return s.db.Checkpoint()
}

// TxnCount returns the number of published transactions (for tests and the
// bench harness).
func (s *Store) TxnCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
