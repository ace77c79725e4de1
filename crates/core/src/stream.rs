//! Streaming MFT execution — the engine of §1 contribution (1).
//!
//! The paper streams MFTs with Nakano & Mu's pushdown machine, obtained by
//! composing the transducer with an XML parsing transducer. This module
//! implements the same computational model directly:
//!
//! * The not-yet-seen part of the input is a set of **locations**: one for
//!   the forest that starts at the current parse position, one per open
//!   element for the forest after its closing tag. An `open` event defines
//!   the current location as `label(child)·sib` (two fresh locations); a
//!   `close`/end-of-input event defines it as ε. A location is an index
//!   into a slab of subscriber lists, recycled when its event arrives —
//!   and a location nothing subscribed to is *dead*: the locations its
//!   events define are dead too, so a whole subtree the transducer is not
//!   looking at costs a counter bump per event.
//! * The output under construction is a **reference-counted expression
//!   graph**: ground nodes, forests, and *pending* state calls. A pending
//!   call subscribes to the location it reads; when the location is defined,
//!   the call is rewritten in place to the instantiated right-hand side of
//!   the applicable rule. Stay moves (`x0`) expand immediately within the
//!   same event (with a fuel bound, since stay loops do not terminate).
//! * Parameters are **shared, not copied**: a parameter used k times costs
//!   k−1 reference-count increments. Dropping a branch (e.g. the losing arm
//!   of an XPath predicate) releases its subgraph. This mirrors the sharing
//!   the OCaml engine gets from immutable values plus garbage collection.
//! * Expressions live in a slab of 24-byte generational slots: a
//!   generation, a reference count, a 2-bit tag (free, forest, node,
//!   pending) under a 30-bit payload — a call's state, a node's label
//!   handle — and a list. The children of a forest or a node and the
//!   arguments of a call are **cell lists**: one 12-byte `(expression,
//!   next)` cell per edge, in a second slab. A node's label is a handle
//!   into a **label table**: the transducer's symbols are fixed handles,
//!   and an input label a `%t` copies gets one refcounted entry per open
//!   event, shared by every node that event labels with it. Freed slots,
//!   cells and entries chain into free lists, so the three slabs grow to
//!   the most the run holds at once and are then recycled: building output
//!   allocates nothing once they have their size.
//! * After every event the **emitter** walks the leftmost frontier of the
//!   graph and pushes everything ground to the [`XmlSink`] — destructively
//!   where the engine holds the only reference, by cursor where the subgraph
//!   is shared (it will be emitted again for another copy). A shared walk
//!   whose other reference goes mid-walk releases the children it passed
//!   and consumes the rest.
//!
//! Peak live graph size is the engine's memory measure, reported in
//! [`StreamStats`] as nodes and as the bytes of the slots, cells and label
//! entries they hold — it is exactly the "buffer" the paper's evaluation
//! plots: constant for optimized streamable queries, linear in the input for
//! the unoptimized translation (which holds `qcopy(x0)` in a parameter).

use crate::emit::EmitSink;
use crate::mft::{Dispatch, Mft, OutLabel, Rhs, RhsNode, StateId, XVar};
use foxq_forest::{Alphabet, Label, SymId, Tree};
use foxq_xml::{EventSource, XmlError, XmlEvent, XmlReader, XmlSink};
use std::collections::VecDeque;

/// The output-event budget the `foxq` CLI and server apply by default
/// (`max_output_events` in `foxq_service::LIMITS`): generous enough for any
/// legitimate run (10⁹ events is hundreds of gigabytes of XML), tight
/// enough that a doubling-transducer bomb over untrusted input fails fast
/// instead of filling the disk.
pub const DEFAULT_MAX_OUTPUT_EVENTS: u64 = 1_000_000_000;

/// The expansion fuel per input event every run gets by default
/// (`max_expansions_per_event` in `foxq_service::LIMITS`).
pub const DEFAULT_MAX_EXPANSIONS_PER_EVENT: u64 = 10_000_000;

/// Resource limits for a streaming run: the engine's view of
/// `foxq_service::Limits`.
#[derive(Debug, Clone, Copy)]
pub struct StreamLimits {
    /// Maximum rule expansions per input event (guards stay-move loops).
    pub max_expansions_per_event: u64,
    /// Maximum output events (open + close) pushed to the sink over the
    /// whole run (guards output bombs — a transducer can emit output
    /// exponential in its input). `u64::MAX` (the default) disables the
    /// check; serving layers should pass [`DEFAULT_MAX_OUTPUT_EVENTS`].
    pub max_output_events: u64,
}

impl Default for StreamLimits {
    fn default() -> Self {
        StreamLimits {
            max_expansions_per_event: DEFAULT_MAX_EXPANSIONS_PER_EVENT,
            max_output_events: u64::MAX,
        }
    }
}

impl StreamLimits {
    /// Default limits with the standard serving output budget.
    pub fn serving() -> Self {
        StreamLimits {
            max_output_events: DEFAULT_MAX_OUTPUT_EVENTS,
            ..StreamLimits::default()
        }
    }
}

/// Failure of a streaming run.
#[derive(Debug)]
pub enum StreamError {
    /// The input XML was malformed.
    Xml(XmlError),
    /// Expansion fuel exhausted — almost certainly a stay-move loop.
    Fuel {
        state: String,
        max_expansions_per_event: u64,
    },
    /// The output-event budget was exhausted.
    OutputLimit { max_output_events: u64 },
    /// An [`EmitSink`] failed to release an
    /// irrevocable prefix downstream (e.g. the client hung up mid-stream).
    /// Aborts the run — there is no point transducing input nobody will
    /// read.
    Emit(std::io::Error),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Xml(e) => write!(f, "{e}"),
            StreamError::Fuel { state, .. } => {
                write!(
                    f,
                    "expansion fuel exhausted in state {state} (stay-move loop?)"
                )
            }
            StreamError::OutputLimit { max_output_events } => {
                write!(f, "output limit of {max_output_events} events exceeded")
            }
            StreamError::Emit(e) => write!(f, "emit sink failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<XmlError> for StreamError {
    fn from(e: XmlError) -> Self {
        StreamError::Xml(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Emit(e)
    }
}

/// Statistics of one streaming run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Input events processed (open + close pairs + eof).
    pub events: u64,
    /// Opening events consumed (elements and text nodes).
    pub open_events: u64,
    /// Closing events consumed.
    pub close_events: u64,
    /// Rule expansions performed.
    pub expansions: u64,
    /// Peak number of live expression nodes (the buffer measure).
    pub peak_live_nodes: usize,
    /// Peak bytes the arena held for live expressions: 24 per slot, 12 per
    /// list cell, and each label entry with its name's bytes, counted once
    /// however many nodes share it. These are the bytes of the layout, not
    /// an accounting weight; slab capacity not in use is not counted.
    pub peak_live_bytes: usize,
    /// Peak number of simultaneously *pending* state calls — output
    /// positions whose value is still unresolved. This is the part of
    /// the buffer that blocks earliest emission: everything to the left
    /// of the first pending call could in principle be flushed. The
    /// streamability planner (ROADMAP item 4) predicts this quantity.
    pub peak_pending_calls: usize,
    /// Maximum nesting depth among the events the engine was fed. Subtrees
    /// withheld upstream (see [`StreamStats::prefiltered_events`]) are not
    /// looked into: over a tape seek, an index jump or an XML skim alike,
    /// this is the depth of what was fed, not of the document.
    pub max_depth: usize,
    /// Output events pushed to the sink.
    pub output_events: u64,
    /// Input events withheld upstream on this engine's behalf (they were
    /// never fed, so they appear in no other counter; `events +
    /// prefiltered_events` is what the source held). The engine itself
    /// never sets it; its drivers do, for two reasons. One is static:
    /// `foxq_service::MultiQueryEngine`'s label prefilter withheld the event
    /// from this lane (any input, prefilter-eligible lanes only). The other
    /// is the run-time verdict: at an element's open the engine — every
    /// lane, under a `MultiQueryEngine` — reported [`Engine::is_dead`], and
    /// the source skipped to the matching close
    /// ([`EventSource::skip_subtree`]): a tape seeks over the interior, an
    /// [`XmlReader`] skims it — every byte checked, no event built. So a
    /// solo `run_streaming*` of a selecting query reports it too; 0 when
    /// nothing was dead.
    pub prefiltered_events: u64,
    /// Tape bytes the label skip index proved irrelevant, so the merged
    /// posting-list cursor never visited them at all (no open frame was
    /// decoded, unlike a tape seek, which starts from a decoded open; the
    /// pass's seeked-over bytes are `foxq_service::SourceCost`'s). The
    /// events inside are counted in [`StreamStats::prefiltered_events`].
    /// Always 0 off the index path.
    pub index_skipped_bytes: u64,
    /// Flushes that emitted at least one output event — i.e. input events
    /// after which the irrevocable output prefix actually grew. An
    /// [`EmitSink`] sees at most this many non-empty
    /// emission boundaries.
    pub emit_flushes: u64,
    /// 1-based index, among the events fed, of the input event whose flush
    /// produced the *first* output event (0 if the run produced no output).
    /// This is the events-to-first-emit measure: how much input had to be
    /// processed before any prefix became irrevocable.
    pub first_emit_events: u64,
    /// Output events that were already emitted when end-of-input arrived —
    /// i.e. output that streamed out *before* the document ended. The
    /// remainder (`output_events - streamed_output_events`) only became
    /// irrevocable at eof. `streamed / output` is the emittable-prefix
    /// fraction.
    pub streamed_output_events: u64,
}

impl StreamStats {
    /// Fraction of output events that were emitted before end-of-input
    /// (the emittable-prefix fraction); 0.0 for runs with no output.
    pub fn streamed_fraction(&self) -> f64 {
        if self.output_events == 0 {
            0.0
        } else {
            self.streamed_output_events as f64 / self.output_events as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------------

/// Buffer occupancy at one input-event boundary, handed to
/// [`StreamObserver::on_event`] after each `open`/`close`/eof is fully
/// processed (expansion + flush done).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSample {
    /// 1-based index of the input event just processed.
    pub input_event_index: u64,
    /// Live expression nodes right now.
    pub live_nodes: usize,
    /// Bytes the arena holds for live expressions right now, counted as
    /// [`StreamStats::peak_live_bytes`] counts them.
    pub live_bytes: usize,
    /// Unresolved pending state calls right now.
    pub pending_calls: usize,
    /// Run-global high-water mark of `live_nodes`, including transient
    /// mid-event peaks the end-of-event values never show.
    pub peak_live_nodes: usize,
    /// Run-global high-water mark of `live_bytes` (ditto).
    pub peak_live_bytes: usize,
    /// Run-global high-water mark of `pending_calls` (ditto).
    pub peak_pending_calls: usize,
}

/// Hook for per-run engine profiling. The engine is generic over the
/// observer and the no-op impl for `()` has `ENABLED = false`, so every
/// hook site monomorphizes to nothing in the default configuration —
/// observer-off runs pay zero cost (guarded by a stats-parity test and
/// the release A/B throughput guard).
pub trait StreamObserver {
    /// Whether hooks fire at all; `false` compiles them out.
    const ENABLED: bool;

    /// One rule expansion finished: `state` was rewritten in place, and
    /// the arena's live-node/byte/pending counts moved by the deltas
    /// (instantiation minus dropped-argument releases).
    fn on_expansion(&mut self, state: StateId, d_nodes: i64, d_bytes: i64, d_pending: i64);

    /// One output event (open or close) was pushed to the sink.
    fn on_output_event(&mut self);

    /// One input event was fully processed; `sample` is the buffer
    /// occupancy at the boundary.
    fn on_event(&mut self, sample: BufferSample);
}

/// The default, disabled observer.
impl StreamObserver for () {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_expansion(&mut self, _: StateId, _: i64, _: i64, _: i64) {}

    #[inline(always)]
    fn on_output_event(&mut self) {}

    #[inline(always)]
    fn on_event(&mut self, _: BufferSample) {}
}

// ---------------------------------------------------------------------------
// Expression arena
// ---------------------------------------------------------------------------

/// Generational index into the arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ExprId {
    idx: u32,
    gen: u32,
}

/// No cell: the end of a [`List`], or a walk that has passed no cell yet.
const NIL: u32 = u32::MAX;

/// A sequence of sub-expressions: a chain of [`Cell`]s in [`Cells`]. The
/// link is per edge, not a next-sibling field of the slot, because a
/// parameter used twice sits in two parents' lists at once.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// One edge of a [`List`]: the sub-expression and the next cell.
struct Cell {
    item: ExprId,
    next: u32,
}

/// The slab every [`List`] of the arena lives in. A freed cell chains into
/// the free list through its `next`, so the slab grows to the most cells
/// live at once and then stops allocating.
struct Cells {
    slab: Vec<Cell>,
    free: u32,
}

impl Default for Cells {
    fn default() -> Self {
        Cells {
            slab: Vec::new(),
            free: NIL,
        }
    }
}

impl Cells {
    fn push_back(&mut self, list: &mut List, item: ExprId) {
        let cell = Cell { item, next: NIL };
        let c = match self.free {
            NIL => {
                self.slab.push(cell);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 live cells")
            }
            c => {
                self.free = self.slab[c as usize].next;
                self.slab[c as usize] = cell;
                c
            }
        };
        match list.tail {
            NIL => list.head = c,
            tail => self.slab[tail as usize].next = c,
        }
        list.tail = c;
        list.len += 1;
    }

    fn pop_front(&mut self, list: &mut List) -> Option<ExprId> {
        let c = list.head;
        if c == NIL {
            return None;
        }
        let cell = &mut self.slab[c as usize];
        list.head = std::mem::replace(&mut cell.next, self.free);
        self.free = c;
        list.len -= 1;
        if list.head == NIL {
            list.tail = NIL;
        }
        Some(cell.item)
    }

    /// The cell after `c`, or the list's first when `c` is [`NIL`].
    fn after(&self, list: &List, c: u32) -> u32 {
        match c {
            NIL => list.head,
            c => self.slab[c as usize].next,
        }
    }

    fn item(&self, c: u32) -> ExprId {
        self.slab[c as usize].item
    }

    /// Append the items of `list` to `out` and free its cells.
    fn drain(&mut self, list: List, out: &mut Vec<ExprId>) {
        let mut c = list.head;
        while c != NIL {
            let cell = &self.slab[c as usize];
            out.push(cell.item);
            c = cell.next;
        }
        if list.tail != NIL {
            self.slab[list.tail as usize].next = self.free;
            self.free = list.head;
        }
    }
}

/// What a slot holds, in the low [`TAG_BITS`] of [`Slot::what`]; the bits
/// above are the payload: a pending call's state, a node's label.
const FREE: u32 = 0;
const FOREST: u32 = 1;
const NODE: u32 = 2;
const PENDING: u32 = 3;
const TAG_BITS: u32 = 2;
const TAG_MASK: u32 = (1 << TAG_BITS) - 1;
/// States and label handles must fit above the tag.
const PAYLOAD_LIMIT: usize = 1 << (32 - TAG_BITS);

/// A live slot's expression, decoded.
#[derive(Clone, Copy)]
enum Expr {
    /// A forest of sub-expressions (also the result of an expansion).
    Forest(List),
    /// A ground output node (element or text).
    Node { label: LabelId, children: List },
    /// A state call waiting for its input location to be defined.
    Pending { state: StateId, args: List },
}

struct Slot {
    gen: u32,
    rc: u32,
    /// Tag and payload; [`FREE`] while the slot is on the free list.
    what: u32,
    /// A forest's members, a node's children or a call's arguments. A free
    /// slot chains to the next free one through `list.head`.
    list: List,
}

const _: () = assert!(size_of::<Slot>() == 24 && size_of::<Cell>() == 12);

/// What [`StreamStats::peak_live_bytes`] charges: each live slot and cell,
/// and each label entry with its name's bytes.
const SLOT_BYTES: usize = size_of::<Slot>();
const CELL_BYTES: usize = size_of::<Cell>();
const LABEL_BYTES: usize = size_of::<LabelEntry>();

impl Slot {
    fn tag(&self) -> u32 {
        self.what & TAG_MASK
    }

    fn expr(&self) -> Expr {
        let payload = self.what >> TAG_BITS;
        match self.tag() {
            FOREST => Expr::Forest(self.list),
            NODE => Expr::Node {
                label: LabelId(payload),
                children: self.list,
            },
            PENDING => Expr::Pending {
                state: StateId(payload),
                args: self.list,
            },
            _ => unreachable!("expression of a free slot"),
        }
    }

    fn set(&mut self, expr: Expr) {
        let (tag, payload, list) = match expr {
            Expr::Forest(list) => (FOREST, 0, list),
            Expr::Node { label, children } => (NODE, label.0, children),
            Expr::Pending { state, args } => (PENDING, state.0, args),
        };
        debug_assert!((payload as usize) < PAYLOAD_LIMIT);
        self.what = payload << TAG_BITS | tag;
        self.list = list;
    }
}

/// Handle of an output node's label in [`Labels`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct LabelId(u32);

/// The labels of the arena's nodes. A handle below the alphabet's size is
/// that symbol of the transducer, fixed for the run. Each handle above it
/// names a refcounted entry holding an input label: the one an open event
/// copies with `%t`, made at its first use and shared by every node the
/// event labels with it, so a further copy is a counter increment.
struct Labels<'m> {
    alphabet: &'m Alphabet,
    /// The alphabet's size: the first entry's handle.
    fixed: u32,
    entries: Vec<LabelEntry>,
    /// The first free entry; free entries chain through `rc`.
    free: u32,
}

struct LabelEntry {
    /// `None` while the entry is free.
    label: Option<Label>,
    /// The references to the entry, or the next free entry.
    rc: u32,
}

impl<'m> Labels<'m> {
    fn new(alphabet: &'m Alphabet) -> Self {
        assert!(alphabet.len() < PAYLOAD_LIMIT, "fewer than 2^30 symbols");
        Labels {
            alphabet,
            fixed: alphabet.len() as u32,
            entries: Vec::new(),
            free: NIL,
        }
    }

    fn get(&self, id: LabelId) -> &Label {
        match id.0.checked_sub(self.fixed) {
            None => self.alphabet.label(SymId(id.0)),
            Some(e) => self.entries[e as usize]
                .label
                .as_ref()
                .expect("a live handle names a used entry"),
        }
    }

    /// A new entry for `label`, holding one reference.
    fn add(&mut self, label: Label) -> LabelId {
        let entry = LabelEntry {
            label: Some(label),
            rc: 1,
        };
        let e = match self.free {
            NIL => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
            e => {
                self.free = self.entries[e as usize].rc;
                self.entries[e as usize] = entry;
                e as usize
            }
        };
        let id = self.fixed as usize + e;
        assert!(id < PAYLOAD_LIMIT, "fewer than 2^30 live labels");
        LabelId(id as u32)
    }

    fn share(&mut self, id: LabelId) {
        if let Some(e) = id.0.checked_sub(self.fixed) {
            self.entries[e as usize].rc += 1;
        }
    }

    /// Drop a reference; the bytes freed if it was the entry's last.
    fn release(&mut self, id: LabelId) -> usize {
        let Some(e) = id.0.checked_sub(self.fixed) else {
            return 0;
        };
        let entry = &mut self.entries[e as usize];
        entry.rc -= 1;
        if entry.rc > 0 {
            return 0;
        }
        let label = entry.label.take().expect("a used entry holds its label");
        entry.rc = self.free;
        self.free = e;
        LABEL_BYTES + label.name.len()
    }
}

struct Arena<'m> {
    slots: Vec<Slot>,
    /// The first free slot; free slots chain through `list.head`.
    free: u32,
    /// The lists of every live expression.
    cells: Cells,
    /// The labels of every live node.
    labels: Labels<'m>,
    live: usize,
    live_bytes: usize,
    peak_live: usize,
    peak_bytes: usize,
    pending: usize,
    peak_pending: usize,
    /// Work list of [`Arena::release`], kept for its capacity.
    releasing: Vec<ExprId>,
}

impl<'m> Arena<'m> {
    fn new(alphabet: &'m Alphabet) -> Self {
        Arena {
            slots: Vec::new(),
            free: NIL,
            cells: Cells::default(),
            labels: Labels::new(alphabet),
            live: 0,
            live_bytes: 0,
            peak_live: 0,
            peak_bytes: 0,
            pending: 0,
            peak_pending: 0,
            releasing: Vec::new(),
        }
    }

    /// Count `bytes` more live, raising the peak.
    fn grow(&mut self, bytes: usize) {
        self.live_bytes += bytes;
        if self.live_bytes > self.peak_bytes {
            self.peak_bytes = self.live_bytes;
        }
    }

    fn alloc(&mut self, expr: Expr) -> ExprId {
        let idx = match self.free {
            NIL => {
                self.slots.push(Slot {
                    gen: 0,
                    rc: 1,
                    what: FREE,
                    list: List::EMPTY,
                });
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live slots")
            }
            i => {
                let slot = &mut self.slots[i as usize];
                self.free = slot.list.head;
                slot.rc = 1;
                i
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.set(expr);
        let gen = slot.gen;
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        self.grow(SLOT_BYTES);
        if matches!(expr, Expr::Pending { .. }) {
            self.pending += 1;
            if self.pending > self.peak_pending {
                self.peak_pending = self.pending;
            }
        }
        ExprId { idx, gen }
    }

    fn alive(&self, id: ExprId) -> bool {
        let slot = &self.slots[id.idx as usize];
        slot.gen == id.gen && slot.tag() != FREE
    }

    fn get(&self, id: ExprId) -> Expr {
        debug_assert!(self.alive(id));
        self.slots[id.idx as usize].expr()
    }

    /// The label of a ground output node.
    fn node_label(&self, id: ExprId) -> &Label {
        match self.get(id) {
            Expr::Node { label, .. } => self.labels.get(label),
            _ => unreachable!("tag of a non-node"),
        }
    }

    fn rc(&self, id: ExprId) -> u32 {
        self.slots[id.idx as usize].rc
    }

    fn inc_rc(&mut self, id: ExprId) {
        debug_assert!(self.alive(id));
        self.slots[id.idx as usize].rc += 1;
    }

    /// Decrement a reference count, freeing recursively at zero.
    fn release(&mut self, id: ExprId) {
        let mut stack = std::mem::take(&mut self.releasing);
        stack.push(id);
        while let Some(id) = stack.pop() {
            let slot = &mut self.slots[id.idx as usize];
            debug_assert!(
                slot.gen == id.gen && slot.tag() != FREE,
                "release of dead node"
            );
            slot.rc -= 1;
            if slot.rc > 0 {
                continue;
            }
            let expr = slot.expr();
            let list = slot.list;
            slot.what = FREE;
            // A slot whose generation would wrap is retired, not reused: an
            // id of its first generation may still sit in a subscriber list.
            if slot.gen < u32::MAX {
                slot.gen += 1;
                slot.list.head = self.free;
                self.free = id.idx;
            }
            self.live -= 1;
            self.live_bytes -= SLOT_BYTES + CELL_BYTES * list.len as usize;
            match expr {
                Expr::Forest(_) => {}
                Expr::Node { label, .. } => self.release_label(label),
                Expr::Pending { .. } => self.pending -= 1,
            }
            self.cells.drain(list, &mut stack);
        }
        self.releasing = stack;
    }

    /// Take the first child of a forest or a node, with its reference.
    fn pop_child(&mut self, id: ExprId) -> Option<ExprId> {
        debug_assert!(matches!(self.get(id), Expr::Forest(_) | Expr::Node { .. }));
        let child = self.cells.pop_front(&mut self.slots[id.idx as usize].list);
        if child.is_some() {
            self.live_bytes -= CELL_BYTES;
        }
        child
    }

    fn push_back(&mut self, list: &mut List, item: ExprId) {
        self.cells.push_back(list, item);
        self.grow(CELL_BYTES);
    }

    /// Append the items of `list` to `out` and free its cells.
    fn drain(&mut self, list: List, out: &mut Vec<ExprId>) {
        self.live_bytes -= CELL_BYTES * list.len as usize;
        self.cells.drain(list, out);
    }

    /// A label entry for `label`, holding one reference.
    fn add_label(&mut self, label: Label) -> LabelId {
        self.grow(LABEL_BYTES + label.name.len());
        self.labels.add(label)
    }

    fn release_label(&mut self, id: LabelId) {
        self.live_bytes -= self.labels.release(id);
    }

    /// Release the children of `id` from its first up to and including
    /// cell `last`.
    fn release_through(&mut self, id: ExprId, last: u32) {
        loop {
            let head = self.slots[id.idx as usize].list.head;
            let child = self.pop_child(id).expect("`last` is one of the children");
            self.release(child);
            if head == last {
                return;
            }
        }
    }

    /// Take a pending call's state and arguments, for its expansion.
    fn take_call(&mut self, id: ExprId) -> (StateId, List) {
        debug_assert!(self.alive(id));
        let slot = &mut self.slots[id.idx as usize];
        match slot.expr() {
            Expr::Pending { state, args } => {
                slot.list = List::EMPTY;
                (state, args)
            }
            _ => unreachable!("expand target must be pending"),
        }
    }

    /// Rewrite an expanded call in place to the forest its rule built,
    /// keeping the pending count honest.
    fn resolve(&mut self, id: ExprId, children: List) {
        debug_assert!(matches!(self.get(id), Expr::Pending { .. }));
        self.pending -= 1;
        self.slots[id.idx as usize].set(Expr::Forest(children));
    }
}

// ---------------------------------------------------------------------------
// Locations
// ---------------------------------------------------------------------------

/// A location, as the index of its subscriber list — the pending calls
/// waiting on it — in [`Engine::locs`].
type Loc = u32;

/// The location without subscribers. A pending call subscribes to the
/// child or sibling location of an `open` event only while a subscriber
/// of the current location expands on that event, so once an event finds
/// no subscriber the locations it defines have none either: the whole
/// subtree and every following sibling, up to the parent's close, move
/// nothing but counters.
const DEAD: Loc = Loc::MAX;

/// The definition applied to a location by one input event.
#[derive(Clone, Copy)]
enum Ctx<'a> {
    /// `label(child) sib`; `sym` is the label's symbol in the transducer's
    /// alphabet, resolved once for the event.
    Open {
        label: &'a Label,
        sym: Option<SymId>,
    },
    Eps,
}

// ---------------------------------------------------------------------------
// Emitter frames
// ---------------------------------------------------------------------------

struct Frame {
    node: ExprId,
    /// Cursor of a shared (non-destructive) walk: the last cell of the
    /// node's children passed, [`NIL`] before the first.
    passed: u32,
    /// Whether this frame holds a reference to `node` (released on pop).
    holds_ref: bool,
    /// For `Node` frames: has the start tag been emitted?
    opened: bool,
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Incremental streaming executor. Feed events with [`Engine::open`] /
/// [`Engine::close`], then call [`Engine::finish`].
///
/// Generic over a [`StreamObserver`]; the default `()` observer
/// compiles every hook out.
pub struct Engine<'m, S, O: StreamObserver = ()> {
    mft: &'m Mft,
    dispatch: Dispatch<'m>,
    sink: S,
    arena: Arena<'m>,
    /// Subscriber lists by [`Loc`]. A list goes back to `free_locs`, with
    /// its capacity, when its location's event arrives, so the slab holds
    /// one list per location subscribed to at once: O(depth).
    locs: Vec<Vec<ExprId>>,
    free_locs: Vec<Loc>,
    /// The location beginning at the current parse position.
    current: Loc,
    /// Locations for the forests after the closing tags of the elements
    /// that were opened on a live location.
    stack: Vec<Loc>,
    /// Elements opened on a dead location: their sibling locations are
    /// dead, so a count stands for them. Nonzero only while `current` is.
    dead_depth: usize,
    /// The child and sibling locations of the `open` event in progress;
    /// each gets a list when its first subscriber arrives.
    child: Loc,
    sib: Loc,
    /// The label entry of the `open` event in progress, once a `%t` made
    /// it; the event holds a reference until its expansions are done.
    event_label: Option<LabelId>,
    /// The calls still to expand within the event in progress.
    work: VecDeque<ExprId>,
    /// The arguments of the call being expanded, drained from its cells.
    args: Vec<ExprId>,
    /// Which arguments of the call being expanded its rule has used.
    used: Vec<bool>,
    frames: Vec<Frame>,
    limits: StreamLimits,
    stats: StreamStats,
    obs: O,
    finished: bool,
}

impl<'m, S: XmlSink> Engine<'m, S> {
    pub fn new(mft: &'m Mft, sink: S) -> Self {
        Self::with_limits(mft, sink, StreamLimits::default())
    }

    pub fn with_limits(mft: &'m Mft, sink: S, limits: StreamLimits) -> Self {
        Engine::with_observer(mft, sink, limits, ())
    }
}

impl<'m, S: XmlSink, O: StreamObserver> Engine<'m, S, O> {
    /// An engine whose hook sites report to `obs`.
    pub fn with_observer(mft: &'m Mft, sink: S, limits: StreamLimits, obs: O) -> Self {
        assert!(mft.states.len() < PAYLOAD_LIMIT, "fewer than 2^30 states");
        let mut arena = Arena::new(&mft.alphabet);
        let root = arena.alloc(Expr::Pending {
            state: mft.initial,
            args: List::EMPTY,
        });
        let frames = vec![Frame {
            node: root,
            passed: NIL,
            holds_ref: true,
            opened: false,
        }];
        Engine {
            mft,
            dispatch: Dispatch::new(mft),
            sink,
            arena,
            locs: vec![vec![root]],
            free_locs: Vec::new(),
            current: 0,
            stack: Vec::new(),
            dead_depth: 0,
            child: DEAD,
            sib: DEAD,
            event_label: None,
            work: VecDeque::new(),
            args: Vec::new(),
            used: Vec::new(),
            frames,
            limits,
            stats: StreamStats::default(),
            obs,
            finished: false,
        }
    }

    /// Feed an opening event (element or text node).
    pub fn open(&mut self, label: &Label) -> Result<(), StreamError> {
        debug_assert!(!self.finished);
        self.stats.events += 1;
        self.stats.open_events += 1;
        if self.current == DEAD {
            // The child and sibling of a dead location are dead.
            self.dead_depth += 1;
        } else {
            let sym = self.dispatch.sym(label);
            self.expand_subscribers(Ctx::Open { label, sym })?;
            self.stack.push(self.sib);
            self.current = self.child;
            self.flush()?;
        }
        let depth = self.stack.len() + self.dead_depth;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.end_event();
        Ok(())
    }

    /// Feed the closing event of the most recently opened node.
    pub fn close(&mut self) -> Result<(), StreamError> {
        debug_assert!(!self.finished);
        self.stats.events += 1;
        self.stats.close_events += 1;
        if self.dead_depth > 0 {
            self.dead_depth -= 1; // on to a dead sibling location
        } else {
            if self.current != DEAD {
                self.expand_subscribers(Ctx::Eps)?;
            }
            self.current = self.stack.pop().expect("close without matching open");
            self.flush()?;
        }
        self.end_event();
        Ok(())
    }

    /// Publish the event's effect: peaks to the stats, the post-event
    /// buffer occupancy to the observer.
    #[inline]
    fn end_event(&mut self) {
        self.stats.peak_live_nodes = self.arena.peak_live;
        self.stats.peak_live_bytes = self.arena.peak_bytes;
        self.stats.peak_pending_calls = self.arena.peak_pending;
        if O::ENABLED {
            self.obs.on_event(BufferSample {
                input_event_index: self.stats.events,
                live_nodes: self.arena.live,
                live_bytes: self.arena.live_bytes,
                pending_calls: self.arena.pending,
                peak_live_nodes: self.arena.peak_live,
                peak_live_bytes: self.arena.peak_bytes,
                peak_pending_calls: self.arena.peak_pending,
            });
        }
    }

    /// Signal end of input and retrieve the sink and run statistics.
    pub fn finish(self) -> Result<(S, StreamStats), StreamError> {
        self.finish_observed().map(|(sink, stats, _)| (sink, stats))
    }

    /// [`Engine::finish`], also handing back the observer.
    pub fn finish_observed(mut self) -> Result<(S, StreamStats, O), StreamError> {
        self.end_input()?;
        Ok((self.sink, self.stats, self.obs))
    }

    /// The end-of-input event: the last expansions and the last flush.
    fn end_input(&mut self) -> Result<(), StreamError> {
        debug_assert!(
            self.stack.is_empty() && self.dead_depth == 0,
            "unclosed elements at finish"
        );
        // Everything emitted so far streamed out before the document
        // ended; whatever the eof tick below adds was end-buffered.
        self.stats.streamed_output_events = self.stats.output_events;
        self.stats.events += 1;
        if self.current != DEAD {
            self.expand_subscribers(Ctx::Eps)?;
        }
        self.flush()?;
        self.end_event();
        debug_assert!(
            self.frames.is_empty(),
            "output frontier not ground after end of input"
        );
        self.finished = true;
        Ok(())
    }

    /// Whether the location at the current parse position has no
    /// subscriber. Right after an [`Engine::open`] that is the verdict on
    /// the whole subtree: nothing below can subscribe either, so feeding
    /// its interior would move only `events`, `open_events`,
    /// `close_events` and `max_depth` — a seekable source may jump to the
    /// matching close instead (the close itself must still be fed).
    pub fn is_dead(&self) -> bool {
        self.current == DEAD
    }

    /// Access the sink mid-run (e.g. to inspect counters).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink mid-run — used by emission drivers to
    /// hand irrevocable prefixes downstream between input events.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Statistics so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Current number of live expression nodes (the buffer size).
    pub fn live_nodes(&self) -> usize {
        self.arena.live
    }

    // ---- expansion ----------------------------------------------------

    /// Define the current (live) location as `ctx` says: expand every call
    /// subscribed to it and the stay moves those expansions make, leaving
    /// in `child` / `sib` the locations the event defines — each [`DEAD`]
    /// unless an expansion subscribed to it.
    fn expand_subscribers(&mut self, ctx: Ctx<'_>) -> Result<(), StreamError> {
        debug_assert!(self.work.is_empty());
        self.work.extend(self.locs[self.current as usize].drain(..));
        self.free_locs.push(self.current);
        self.child = DEAD;
        self.sib = DEAD;
        let mut fuel = self.limits.max_expansions_per_event;
        while let Some(id) = self.work.pop_front() {
            if !self.arena.alive(id) {
                continue; // dropped branch
            }
            if fuel == 0 {
                let state = match self.arena.get(id) {
                    Expr::Pending { state, .. } => self.mft.name_of(state).to_string(),
                    _ => "?".to_string(),
                };
                return Err(StreamError::Fuel {
                    state,
                    max_expansions_per_event: self.limits.max_expansions_per_event,
                });
            }
            fuel -= 1;
            self.expand_one(id, ctx);
        }
        if let Some(label) = self.event_label.take() {
            self.arena.release_label(label);
        }
        Ok(())
    }

    /// Rewrite one pending call in place using the rule selected by `ctx`.
    fn expand_one(&mut self, id: ExprId, ctx: Ctx<'_>) {
        self.stats.expansions += 1;
        let before = if O::ENABLED {
            (self.arena.live, self.arena.live_bytes, self.arena.pending)
        } else {
            (0, 0, 0)
        };
        let (state, cells) = self.arena.take_call(id);
        // Expansion is never re-entered, so one scratch buffer serves.
        let mut args = std::mem::take(&mut self.args);
        args.clear();
        self.arena.drain(cells, &mut args);
        let rhs = match ctx {
            Ctx::Eps => self.dispatch.eps_rule(state),
            Ctx::Open { label, sym } => self.dispatch.node_rule(state, sym, label.is_text()),
        };
        let mut used = std::mem::take(&mut self.used);
        used.clear();
        used.resize(args.len(), false);
        let children = self.instantiate(rhs, ctx, &args, &mut used);
        // Arguments the rule dropped: release their subgraphs.
        for (arg, used) in args.iter().zip(&used) {
            if !used {
                self.arena.release(*arg);
            }
        }
        self.args = args;
        self.used = used;
        self.arena.resolve(id, children);
        if O::ENABLED {
            self.obs.on_expansion(
                state,
                self.arena.live as i64 - before.0 as i64,
                self.arena.live_bytes as i64 - before.1 as i64,
                self.arena.pending as i64 - before.2 as i64,
            );
        }
    }

    /// Instantiate a rhs forest: allocate output nodes, share parameters,
    /// create pending calls (subscribing or scheduling them).
    fn instantiate(&mut self, rhs: &Rhs, ctx: Ctx<'_>, args: &[ExprId], used: &mut [bool]) -> List {
        let mut out = List::EMPTY;
        for node in rhs {
            let item = match node {
                RhsNode::Param(i) => {
                    let arg = args[*i];
                    if used[*i] {
                        self.arena.inc_rc(arg);
                    } else {
                        used[*i] = true;
                    }
                    arg
                }
                RhsNode::Out { label, children } => {
                    let label = match label {
                        OutLabel::Sym(s) => LabelId(s.0),
                        OutLabel::Current => match ctx {
                            Ctx::Open { label, sym } => self.event_label(label, sym),
                            Ctx::Eps => unreachable!("%t in ε context (validated)"),
                        },
                    };
                    let kids = self.instantiate(children, ctx, args, used);
                    self.arena.alloc(Expr::Node {
                        label,
                        children: kids,
                    })
                }
                RhsNode::Call {
                    state,
                    input,
                    args: cargs,
                } => {
                    let mut new_args = List::EMPTY;
                    for a in cargs {
                        let f = self.instantiate(a, ctx, args, used);
                        let f = self.arena.alloc(Expr::Forest(f));
                        self.arena.push_back(&mut new_args, f);
                    }
                    let pid = self.arena.alloc(Expr::Pending {
                        state: *state,
                        args: new_args,
                    });
                    match (input, ctx) {
                        (XVar::X0, _) => self.work.push_back(pid), // stay move: same event
                        (XVar::X1, Ctx::Open { .. }) => {
                            self.child = self.subscribe(self.child, pid)
                        }
                        (XVar::X2, Ctx::Open { .. }) => self.sib = self.subscribe(self.sib, pid),
                        // ε-rules may only use x0 (validated), so x1/x2 in an
                        // Eps context cannot occur.
                        (_, Ctx::Eps) => unreachable!("x1/x2 in ε context (validated)"),
                    }
                    pid
                }
            };
            self.arena.push_back(&mut out, item);
        }
        out
    }

    /// The handle a `%t` of the `open` event in progress labels its node
    /// with: the label's symbol if it has one, else the event's entry, made
    /// at the first use.
    fn event_label(&mut self, label: &Label, sym: Option<SymId>) -> LabelId {
        if let Some(sym) = sym {
            return LabelId(sym.0);
        }
        let arena = &mut self.arena;
        let id = *self
            .event_label
            .get_or_insert_with(|| arena.add_label(label.clone()));
        arena.labels.share(id);
        id
    }

    /// Add `id` to the subscribers of `loc`, giving it a (recycled) list
    /// if it had none; returns the location.
    fn subscribe(&mut self, loc: Loc, id: ExprId) -> Loc {
        let loc = match loc {
            DEAD => self.free_locs.pop().unwrap_or_else(|| {
                self.locs.push(Vec::new());
                Loc::try_from(self.locs.len()).expect("fewer than 2^32 live locations") - 1
            }),
            loc => loc,
        };
        self.locs[loc as usize].push(id);
        loc
    }

    // ---- emission -------------------------------------------------------

    /// Record one output event against the budget.
    fn count_output_event(&mut self) -> Result<(), StreamError> {
        if O::ENABLED {
            self.obs.on_output_event();
        }
        if self.stats.output_events == 0 {
            self.stats.first_emit_events = self.stats.events;
        }
        self.stats.output_events += 1;
        if self.stats.output_events > self.limits.max_output_events {
            return Err(StreamError::OutputLimit {
                max_output_events: self.limits.max_output_events,
            });
        }
        Ok(())
    }

    /// Emit everything ground on the leftmost frontier, counting the
    /// flush in [`StreamStats::emit_flushes`] when it produced output.
    fn flush(&mut self) -> Result<(), StreamError> {
        let before = self.stats.output_events;
        let r = self.flush_frontier();
        if self.stats.output_events > before {
            self.stats.emit_flushes += 1;
        }
        r
    }

    /// Walk the leftmost output frontier, pushing every ground event to
    /// the sink and stalling at the first pending state call. Flushed
    /// nodes whose reference moved into the frame (`holds_ref`, rc == 1)
    /// are released from the arena on the spot, so live memory tracks
    /// the pending frontier rather than the emitted output.
    fn flush_frontier(&mut self) -> Result<(), StreamError> {
        while let Some(top) = self.frames.last_mut() {
            let node = top.node;
            let (is_node, children) = match self.arena.get(node) {
                Expr::Pending { .. } => return Ok(()),
                Expr::Forest(children) => (false, children),
                Expr::Node { children, .. } => (true, children),
            };
            if is_node && !top.opened {
                top.opened = true;
                self.count_output_event()?;
                // The tag's label is lent to the sink straight from the
                // arena: `arena` and `sink` are disjoint fields.
                self.sink.open(self.arena.node_label(node));
                continue;
            }
            let destructive = top.holds_ref && self.arena.rc(node) == 1;
            let next = if destructive {
                if top.passed != NIL {
                    // Walked as shared until the other reference went: the
                    // children passed are emitted, so they go now, and the
                    // walk consumes the rest.
                    let passed = std::mem::replace(&mut top.passed, NIL);
                    self.arena.release_through(node, passed);
                }
                self.arena.pop_child(node)
            } else {
                let cell = self.arena.cells.after(&children, top.passed);
                (cell != NIL).then(|| {
                    top.passed = cell;
                    self.arena.cells.item(cell)
                })
            };
            match next {
                Some(child) => {
                    // Tail-call elimination: sibling continuations expand
                    // *nested* inside the previous forest, so without this a
                    // frame per sibling would accumulate. If a destructive
                    // forest just yielded its last child, retire it now.
                    if destructive
                        && matches!(self.arena.get(node), Expr::Forest(ch) if ch.len == 0)
                    {
                        let f = self.frames.pop().unwrap();
                        self.arena.release(f.node);
                    }
                    // In destructive mode the parent's reference moved into
                    // this frame; in shared mode the parent keeps it.
                    self.frames.push(Frame {
                        node: child,
                        passed: NIL,
                        holds_ref: destructive,
                        opened: false,
                    });
                }
                None => {
                    if is_node {
                        self.count_output_event()?;
                        self.sink.close(self.arena.node_label(node));
                    }
                    let f = self.frames.pop().unwrap();
                    if f.holds_ref {
                        self.arena.release(f.node);
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Run an MFT over any [`EventSource`] (an [`XmlReader`], a
/// `foxq_store::TapeReader`, …) under explicit resource limits, pushing
/// output into `sink`.
pub fn run_streaming_with_limits<E: EventSource, S: EmitSink>(
    mft: &Mft,
    events: E,
    sink: S,
    limits: StreamLimits,
) -> Result<(S, StreamStats), StreamError> {
    run_streaming_with_observer(mft, events, sink, limits, ())
        .map(|(sink, stats, ())| (sink, stats))
}

/// The single-lane event-source loop, with a live [`StreamObserver`] (e.g.
/// a `StreamProfiler`; `()` compiles away) handed back alongside the sink
/// and stats. Each event is fed to the engine, then the sink's
/// [`EmitSink::emit`] boundary fires: whatever the flush just made
/// irrevocable is released downstream before the next event is consumed —
/// the flushed prefix has already been freed from the expression arena, so
/// live memory tracks the pending frontier, not the output — and a final
/// `emit` after end-of-input releases the end-buffered remainder. After an
/// element's open that leaves [`Engine::is_dead`], the source skips to the
/// matching close ([`EventSource::skip_subtree`]: an `XmlReader` skims the
/// interior, a tape seeks over it), the interior is accounted to
/// [`StreamStats::prefiltered_events`], and the close is fed.
pub fn run_streaming_with_observer<E: EventSource, S: EmitSink, O: StreamObserver>(
    mft: &Mft,
    mut events: E,
    sink: S,
    limits: StreamLimits,
    obs: O,
) -> Result<(S, StreamStats, O), StreamError> {
    let mut engine = Engine::with_observer(mft, sink, limits, obs);
    let mut withheld = 0;
    loop {
        match events.next_event()? {
            XmlEvent::Open(label) => {
                engine.open(&label)?;
                if !label.is_text() && engine.is_dead() {
                    withheld += events.skip_subtree()? - 1;
                    engine.sink_mut().emit()?;
                    engine.close()?;
                }
            }
            XmlEvent::Close(_) => engine.close()?,
            XmlEvent::Eof => {
                let (mut sink, mut stats, obs) = engine.finish_observed()?;
                stats.prefiltered_events = withheld;
                sink.emit()?;
                return Ok((sink, stats, obs));
            }
        }
        engine.sink_mut().emit()?;
    }
}

/// Drive the engine from an in-memory forest (no XML parsing involved) —
/// used by tests and benchmarks that want to isolate transducer cost.
pub fn run_streaming_on_forest<S: XmlSink>(
    mft: &Mft,
    forest: &[Tree],
    sink: S,
) -> Result<(S, StreamStats), StreamError> {
    let mut engine = Engine::new(mft, sink);
    for t in forest {
        feed_tree(&mut engine, t)?;
    }
    engine.finish()
}

fn feed_tree<S: XmlSink>(engine: &mut Engine<'_, S>, t: &Tree) -> Result<(), StreamError> {
    engine.open(&t.label)?;
    for c in &t.children {
        feed_tree(engine, c)?;
    }
    engine.close()
}

/// Output and statistics of [`run_streaming_to_string`].
#[derive(Debug)]
pub struct StreamRunOutput {
    /// Serialized XML output.
    pub output: String,
    pub stats: StreamStats,
}

/// Convenience driver: parse `input` as XML, run `mft` under `limits`,
/// serialize the output.
pub fn run_streaming_to_string(
    mft: &Mft,
    input: &[u8],
    limits: StreamLimits,
) -> Result<StreamRunOutput, StreamError> {
    let reader = XmlReader::new(input);
    let sink = foxq_xml::WriterSink::new(Vec::new());
    let (sink, stats) = run_streaming_with_limits(mft, reader, sink, limits)?;
    let buf = sink.finish().expect("writing to Vec cannot fail");
    Ok(StreamRunOutput {
        output: String::from_utf8(buf).expect("output is UTF-8"),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_mft;
    use crate::opt::optimize;
    use crate::text::parse_mft;
    use crate::translate::translate;
    use foxq_forest::term::parse_forest;
    use foxq_xml::{forest_to_xml_string, ForestSink, NullSink};
    use foxq_xquery::parse_query;

    /// Streaming output must equal the in-memory interpreter's output.
    fn check_stream(m: &Mft, doc: &str) -> StreamStats {
        let f = parse_forest(doc).unwrap();
        let expected = run_mft(m, &f).unwrap();
        let (sink, stats) = run_streaming_on_forest(m, &f, ForestSink::new()).unwrap();
        let got = sink.into_forest();
        assert_eq!(
            forest_to_xml_string(&got),
            forest_to_xml_string(&expected),
            "stream vs interp on {doc}"
        );
        stats
    }

    #[test]
    fn identity_streams() {
        let m =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        for doc in ["", "a", r#"a(b("t") c) d(e(f))"#] {
            let stats = check_stream(&m, doc);
            // Identity is fully incremental: nothing accumulates.
            assert!(stats.peak_live_nodes < 32, "{}", stats.peak_live_nodes);
        }
    }

    #[test]
    fn pending_calls_high_water_mark_is_tracked() {
        // Identity holds at most a handful of unresolved calls at once
        // (the frontier of the copy), regardless of document size.
        let m =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        let stats = check_stream(&m, r#"a(b("t") c) d(e(f))"#);
        assert!(
            stats.peak_pending_calls >= 1,
            "{}",
            stats.peak_pending_calls
        );
        assert!(
            stats.peak_pending_calls <= stats.peak_live_nodes,
            "pending {} > live {}",
            stats.peak_pending_calls,
            stats.peak_live_nodes
        );
        // Deeper nesting opens more simultaneously-unresolved calls than a
        // flat document: the HWM responds to buffering pressure.
        let flat = check_stream(&m, "a b c d");
        let deep = check_stream(&m, "a(b(c(d(e(f(g))))))");
        assert!(
            deep.peak_pending_calls > flat.peak_pending_calls,
            "deep {} <= flat {}",
            deep.peak_pending_calls,
            flat.peak_pending_calls
        );
    }

    #[test]
    fn mperson_streams_like_interp() {
        let m = parse_mft(crate::text::MPERSON).unwrap();
        check_stream(
            &m,
            r#"person(p_id(a() "person0") name("Jim") c() name("Li"))"#,
        );
        check_stream(
            &m,
            r#"person(p_id(a() "perso7") name("Jim") c() p_id("person0"))"#,
        );
        check_stream(&m, r#"person(p_id("x") name("Jim"))"#);
        check_stream(&m, "");
    }

    #[test]
    fn translated_queries_stream_correctly() {
        let cases = [
            ("<o>{$input/a}</o>", "a(\"1\") b() a(\"2\")"),
            ("<o>{$input//c}</o>", "doc(a(b(c(c()) d())))"),
            (
                r#"<out>{ for $b in $input/person[./p_id/text() = "person0"]
                   return let $r := $b/name/text() return $r }</out>"#,
                r#"person(p_id(a() "person0") name("Jim") c() name("Li"))"#,
            ),
            (
                "<deepdup>{ for $x in $input/* return
                   <r> { for $y in $x/* return <r1><r2>{$y}</r2>{$y}</r1> } </r> }</deepdup>",
                "site(a(b(\"1\")) c())",
            ),
            (
                "<double><r1>{$input/*}</r1>{$input/*}</double>",
                "site(a(\"x\") b())",
            ),
            (
                "<fourstar>{$input//*//*//*//*}</fourstar>",
                "a(b(c(d(e(f())) d2())) g())",
            ),
            (
                r#"<o>{$input/r/x[./b[./n/text()="1"]/following-sibling::b/n/text()="2"]}</o>"#,
                r#"r(x(b(n("1")) b(n("2"))) x(b(n("2")) b(n("1"))))"#,
            ),
            // `$w` is shared by the `<o>` being emitted and by the call
            // scanning past `<a/>` for more iterations; the latter drops
            // it at `</r>`, midway through the shared walk of `<o>`.
            (
                "let $w := $input/r/e/a return for $v in $input/r/a return <o>{$w}</o>",
                "r(a() e(a()))",
            ),
        ];
        for (query, doc) in cases {
            let q = parse_query(query).unwrap();
            let unopt = translate(&q).unwrap();
            let opt = optimize(unopt.clone());
            check_stream(&unopt, doc);
            check_stream(&opt, doc);
        }
    }

    #[test]
    fn xml_to_xml_pipeline() {
        let q = parse_query(
            r#"<out>{ for $b in $input/person[./p_id/text() = "person0"]
               return let $r := $b/name/text() return $r }</out>"#,
        )
        .unwrap();
        let m = optimize(translate(&q).unwrap());
        let doc = "<person><p_id><a/>person0</p_id><name>Jim</name><c/><name>Li</name></person>";
        let out = run_streaming_to_string(&m, doc.as_bytes(), StreamLimits::default()).unwrap();
        // The paper's §2.2 result: <out>JimLi</out>.
        assert_eq!(out.output, "<out>JimLi</out>");
    }

    #[test]
    fn optimized_memory_is_constant_but_unoptimized_grows() {
        // The headline experiment shape (Fig. 4): on a streamable query the
        // optimized MFT runs in O(1) buffer, the unoptimized one in O(n).
        let q =
            parse_query("<o>{ for $p in $input/people/person return <n>{$p/name/text()}</n> }</o>")
                .unwrap();
        let unopt = translate(&q).unwrap();
        let opt = optimize(unopt.clone());

        let doc_of = |n: usize| {
            let mut s = String::from("people(");
            for i in 0..n {
                s.push_str(&format!(r#"person(name("p{i}") junk("x"))"#));
            }
            s.push(')');
            parse_forest(&s).unwrap()
        };
        let peak = |m: &Mft, n: usize| {
            let (_, stats) =
                run_streaming_on_forest(m, &doc_of(n), foxq_xml::CountingSink::default()).unwrap();
            stats.peak_live_nodes
        };
        let (opt_small, opt_big) = (peak(&opt, 10), peak(&opt, 200));
        let (unopt_small, unopt_big) = (peak(&unopt, 10), peak(&unopt, 200));
        // Optimized: flat (allow small slack for arena jitter).
        assert!(
            opt_big <= opt_small + 8,
            "optimized engine buffered: {opt_small} -> {opt_big}"
        );
        // Unoptimized: grows roughly linearly (it retains qcopy($input)).
        assert!(
            unopt_big > unopt_small * 5,
            "unoptimized engine did not grow: {unopt_small} -> {unopt_big}"
        );
    }

    #[test]
    fn predicate_buffering_is_local() {
        // Buffering for a predicate is bounded by the candidate subtree, not
        // by the whole input: persons after the match don't accumulate.
        let q = parse_query(
            r#"<o>{ for $p in $input/people/person[./id/text()="yes"]
                 return $p/name/text() }</o>"#,
        )
        .unwrap();
        let m = optimize(translate(&q).unwrap());
        let doc_of = |n: usize| {
            let mut s = String::from("people(");
            for i in 0..n {
                s.push_str(&format!(r#"person(id("no{i}") name("p{i}"))"#));
            }
            s.push(')');
            parse_forest(&s).unwrap()
        };
        let peak = |n: usize| {
            let (_, stats) =
                run_streaming_on_forest(&m, &doc_of(n), foxq_xml::CountingSink::default()).unwrap();
            stats.peak_live_nodes
        };
        assert!(peak(200) <= peak(10) + 8, "{} vs {}", peak(200), peak(10));
    }

    #[test]
    fn double_query_buffers_the_input_copy() {
        // Fig. 4(g): the double query *must* buffer the input for the second
        // copy — memory grows with input even for the optimized MFT.
        let q = parse_query("<double><r1>{$input/*}</r1>{$input/*}</double>").unwrap();
        let m = optimize(translate(&q).unwrap());
        let doc_of = |n: usize| {
            let mut s = String::from("site(");
            for i in 0..n {
                s.push_str(&format!("item(v(\"i{i}\"))"));
            }
            s.push(')');
            parse_forest(&s).unwrap()
        };
        let peak = |n: usize| {
            let (_, stats) =
                run_streaming_on_forest(&m, &doc_of(n), foxq_xml::CountingSink::default()).unwrap();
            stats.peak_live_nodes
        };
        assert!(peak(200) > peak(10) * 4, "{} vs {}", peak(200), peak(10));
        check_stream(&m, "site(a(\"x\") b())");
    }

    /// Parameter-doubling chain: p0(x0, a()) … p_i(x0, y1 y1) … p_n → y1.
    /// n+2 rule expansions build a *shared* graph whose unfolding has 2^n
    /// trees — the engine's arena stays tiny (parameters are rc-shared), so
    /// neither the fuel limit nor the memory measure trips; only the output
    /// budget stands between this and 2^n emitted events.
    fn param_doubling_bomb(n: usize) -> Mft {
        let mut src = String::from("q0(%) -> p0(x0, a());\n");
        for i in 0..n {
            src.push_str(&format!("p{i}(%, y1) -> p{}(x0, y1 y1);\n", i + 1));
        }
        src.push_str(&format!("p{n}(%, y1) -> y1;\n"));
        parse_mft(&src).unwrap()
    }

    #[test]
    fn output_budget_stops_param_doubling_bomb() {
        let m = param_doubling_bomb(40); // 2^40 output trees
        let limits = StreamLimits {
            max_output_events: 10_000,
            ..StreamLimits::default()
        };
        let r = run_streaming_to_string(&m, b"<x/>", limits);
        match r {
            Err(StreamError::OutputLimit { max_output_events }) => {
                assert_eq!(max_output_events, 10_000)
            }
            other => panic!("expected OutputLimit, got {other:?}"),
        }
        // Under the budget, the same shape still runs normally.
        let out = run_streaming_to_string(&param_doubling_bomb(3), b"<x/>", limits).unwrap();
        assert_eq!(out.output, "<a></a>".repeat(8));
    }

    #[test]
    fn stay_loop_exhausts_fuel() {
        let m = parse_mft("q0(%) -> q0(x0);").unwrap();
        let f = parse_forest("a").unwrap();
        let r = run_streaming_on_forest(&m, &f, foxq_xml::NullSink);
        assert!(matches!(r, Err(StreamError::Fuel { .. })));
    }

    #[test]
    fn output_streams_before_input_ends() {
        // After opening <a>, the constant prefix of the output must already
        // be at the sink even though the document is still open.
        let q = parse_query("<o><head/>{$input//x}</o>").unwrap();
        let m = optimize(translate(&q).unwrap());
        let mut engine = Engine::new(&m, foxq_xml::CountingSink::default());
        engine.open(&Label::elem("a")).unwrap();
        assert!(
            engine.sink().nodes >= 2,
            "expected <o><head/> prefix to be emitted, saw {} nodes",
            engine.sink().nodes
        );
        engine.close().unwrap();
        let (sink, _) = engine.finish().unwrap();
        assert_eq!(sink.nodes, 2); // <o> and <head/>
    }

    #[test]
    fn stats_are_populated() {
        let m =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        let f = parse_forest("a(b(c))").unwrap();
        let (_, stats) = run_streaming_on_forest(&m, &f, foxq_xml::NullSink).unwrap();
        assert_eq!(stats.events, 7); // 3 opens + 3 closes + eof
        assert_eq!(stats.open_events, 3);
        assert_eq!(stats.close_events, 3);
        assert_eq!(stats.max_depth, 3);
        assert!(stats.expansions > 0);
        assert_eq!(stats.output_events, 6);
    }

    /// Run `m` over `doc` up to and including the end of input, and check
    /// that every slot, cell and label entry is back on its free list.
    fn check_drained(m: &Mft, doc: &str) {
        let mut engine = Engine::new(m, NullSink);
        for t in &parse_forest(doc).unwrap() {
            feed_tree(&mut engine, t).unwrap();
        }
        engine.end_input().unwrap();
        let arena = &engine.arena;
        assert_eq!((arena.live, arena.live_bytes, arena.pending), (0, 0, 0));
        let mut free_slots = 0;
        let mut s = arena.free;
        while s != NIL {
            let slot = &arena.slots[s as usize];
            assert_eq!(slot.tag(), FREE);
            free_slots += 1;
            s = slot.list.head;
        }
        assert_eq!(free_slots, arena.slots.len(), "slots of {doc}");
        let mut free_cells = 0;
        let mut c = arena.cells.free;
        while c != NIL {
            free_cells += 1;
            c = arena.cells.slab[c as usize].next;
        }
        assert_eq!(free_cells, arena.cells.slab.len(), "cells of {doc}");
        let labels = &arena.labels;
        assert!(!labels.entries.is_empty(), "{doc} copied no label");
        let mut free_labels = 0;
        let mut e = labels.free;
        while e != NIL {
            let entry = &labels.entries[e as usize];
            assert!(entry.label.is_none());
            free_labels += 1;
            e = entry.rc;
        }
        assert_eq!(free_labels, labels.entries.len(), "labels of {doc}");
    }

    #[test]
    fn everything_is_freed_at_the_end_of_input() {
        let copy =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        check_drained(&copy, r#"a(b("t") c) d(e(f))"#);
        let cases = [
            (
                "<double><r1>{$input/*}</r1>{$input/*}</double>",
                r#"site(a("x" b()) c("y"))"#,
            ),
            // The shared walk of `<o>` loses its other reference midway.
            (
                "let $w := $input/r/e/a return for $v in $input/r/a return <o>{$w}</o>",
                "r(a() e(a(\"t\")) a())",
            ),
        ];
        for (query, doc) in cases {
            let unopt = translate(&parse_query(query).unwrap()).unwrap();
            check_drained(&optimize(unopt.clone()), doc);
            check_drained(&unopt, doc);
        }
    }

    #[test]
    fn an_engine_dropped_after_an_output_limit_error_does_not_panic() {
        let q = parse_query("<double><r1>{$input/*}</r1>{$input/*}</double>").unwrap();
        let m = optimize(translate(&q).unwrap());
        let limits = StreamLimits {
            max_output_events: 5,
            ..StreamLimits::default()
        };
        let r = run_streaming_to_string(&m, b"<site><a>x</a><b/><c/></site>", limits);
        assert!(matches!(r, Err(StreamError::OutputLimit { .. })), "{r:?}");
    }

    #[test]
    fn a_slot_whose_generation_would_wrap_is_retired() {
        let alphabet = Alphabet::new();
        let mut arena = Arena::new(&alphabet);
        let a = arena.alloc(Expr::Forest(List::EMPTY));
        arena.slots[a.idx as usize].gen = u32::MAX - 1;
        let a = ExprId {
            gen: u32::MAX - 1,
            ..a
        };
        arena.release(a);
        // Recycled once more, at the last generation ...
        let b = arena.alloc(Expr::Forest(List::EMPTY));
        assert_eq!((b.idx, b.gen), (a.idx, u32::MAX));
        arena.release(b);
        // ... and then never again: the next generation would be 0.
        let c = arena.alloc(Expr::Forest(List::EMPTY));
        assert_ne!(c.idx, a.idx);
        for stale in [a, b, ExprId { idx: a.idx, gen: 0 }] {
            assert!(!arena.alive(stale), "{stale:?}");
        }
        assert!(arena.alive(c));
        assert_eq!(arena.live, 1);
    }
}
