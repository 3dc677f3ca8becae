//! Slab-allocated per-session serving state.
//!
//! Everything a stream needs beyond the shared packed weights lives in
//! one `Session` slot: its private activation arena ([`QScratch`]), its
//! OP-policy state, a bounded ring of queued frames, and its latency
//! histogram. Slots are recycled through a freelist: retiring a session
//! pushes its slot (warm arena included) back for the next admission, so
//! after a slot has served once, admit → serve → retire → admit touches
//! the heap exactly zero times. The slab never shrinks — that is the
//! point: arenas are reused, not freed (asserted by
//! `tests/zero_alloc.rs`).

use np_adaptive::{Decision, OpPolicy};
use np_quant::{QScratch, QuantizedProgram};
use np_tensor::parallel::Pool;
use np_trace::hist::LogHistogram;

/// Handle to an admitted session: a slot index plus a generation stamp so
/// a handle kept past [`retire`](crate::server::Server::retire) can never
/// reach the slot's next tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    index: u32,
    generation: u32,
}

impl SessionId {
    /// The slot index behind this handle (stable for the session's
    /// lifetime; reused by later tenants after retirement).
    pub fn index(self) -> usize {
        self.index as usize
    }

    pub(crate) fn for_slot(index: usize, generation: u32) -> Self {
        SessionId {
            index: index as u32,
            generation,
        }
    }
}

/// One session's private serving state. All buffers are sized at first
/// admission of the slot and reused for every later tenant.
pub(crate) struct Session {
    /// Private activation arena + lowering scratch for the little model
    /// (escalations run in the server's shared batched scratch).
    pub(crate) scratch: QScratch,
    pub(crate) policy: OpPolicy,
    /// Frame ring: `queue_cap * frame_len` floats, FIFO by (head, len).
    queue: Vec<f32>,
    arrivals: Vec<u64>,
    head: usize,
    len: usize,
    pub(crate) generation: u32,
    pub(crate) active: bool,
    /// Tick staging: picked by the current tick's selection pass.
    pub(crate) selected: bool,
    /// Tick staging: the little model's outputs for the frame at `head`.
    pub(crate) little_scaled: [f32; 4],
    /// Tick staging: the policy's decision for the frame at `head`.
    pub(crate) decision: Decision,
    /// Frames served to this tenant so far (its per-stream sequence no).
    pub(crate) seq: u64,
    pub(crate) big_frames: u64,
    pub(crate) peak_queue: usize,
    /// Completion − arrival, microseconds, per served frame.
    pub(crate) latency: LogHistogram,
}

impl Session {
    fn new(frame_len: usize, queue_cap: usize) -> Self {
        Session {
            scratch: QScratch::new(),
            policy: OpPolicy::new(0.0),
            queue: vec![0.0; queue_cap * frame_len],
            arrivals: vec![0; queue_cap],
            head: 0,
            len: 0,
            generation: 0,
            active: false,
            selected: false,
            little_scaled: [0.0; 4],
            decision: Decision::Small,
            seq: 0,
            big_frames: 0,
            peak_queue: 0,
            latency: LogHistogram::new(),
        }
    }

    /// Re-arms a recycled slot for a new tenant. Clears policy state,
    /// queue, and statistics; keeps every allocation.
    fn rearm(&mut self, th: f32) {
        self.policy = OpPolicy::new(th);
        self.head = 0;
        self.len = 0;
        self.active = true;
        self.selected = false;
        self.seq = 0;
        self.big_frames = 0;
        self.peak_queue = 0;
        self.latency.clear();
    }

    /// Copies one frame into the ring. Returns `false` (drop) when full.
    pub(crate) fn enqueue(&mut self, frame: &[f32], arrival_us: u64, frame_len: usize) -> bool {
        let cap = self.arrivals.len();
        if self.len == cap {
            return false;
        }
        let slot = (self.head + self.len) % cap;
        self.queue[slot * frame_len..(slot + 1) * frame_len].copy_from_slice(frame);
        self.arrivals[slot] = arrival_us;
        self.len += 1;
        self.peak_queue = self.peak_queue.max(self.len);
        true
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.len
    }

    /// Resident bytes of the frame ring (data + arrival stamps).
    pub(crate) fn queue_bytes(&self) -> usize {
        self.queue.len() * std::mem::size_of::<f32>()
            + self.arrivals.len() * std::mem::size_of::<u64>()
    }

    /// Arrival timestamp of the oldest queued frame.
    pub(crate) fn head_arrival(&self) -> Option<u64> {
        (self.len > 0).then(|| self.arrivals[self.head])
    }

    /// The oldest queued frame's data.
    pub(crate) fn head_frame(&self, frame_len: usize) -> &[f32] {
        debug_assert!(self.len > 0);
        &self.queue[self.head * frame_len..(self.head + 1) * frame_len]
    }

    /// Removes the oldest queued frame, returning its arrival time.
    pub(crate) fn pop_head(&mut self) -> u64 {
        debug_assert!(self.len > 0);
        let arrival = self.arrivals[self.head];
        self.head = (self.head + 1) % self.arrivals.len();
        self.len -= 1;
        arrival
    }

    /// Runs the little program on the frame at the queue head into this
    /// session's private scratch, staging the scaled outputs for the
    /// policy pass. Split borrows inside one method keep the queue read
    /// and the scratch write on disjoint fields.
    pub(crate) fn run_little(&mut self, little: &QuantizedProgram, pool: Pool, frame_len: usize) {
        let frame = &self.queue[self.head * frame_len..(self.head + 1) * frame_len];
        let out = little.forward_prepacked(pool, &mut self.scratch, frame);
        self.little_scaled = [out[0], out[1], out[2], out[3]];
    }
}

/// Fixed-capacity slab of `Session` slots with a freelist.
///
/// `admit` is O(1): pop the freelist (or, before the slab has ever
/// reached `capacity` live slots, append one new slot — the only path
/// that allocates). `retire` is O(1) and keeps the slot's buffers warm.
pub struct SessionSlab {
    slots: Vec<Session>,
    free: Vec<u32>,
    capacity: usize,
    frame_len: usize,
    queue_cap: usize,
    active: usize,
}

impl SessionSlab {
    /// A slab admitting at most `capacity` concurrent sessions, each
    /// queueing at most `queue_cap` frames of `frame_len` floats.
    pub fn new(capacity: usize, frame_len: usize, queue_cap: usize) -> Self {
        assert!(capacity >= 1, "slab capacity must be at least 1");
        assert!(queue_cap >= 1, "queue capacity must be at least 1");
        SessionSlab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            capacity,
            frame_len,
            queue_cap,
            active: 0,
        }
    }

    /// Admits a session with OP threshold `th`; `None` when `capacity`
    /// sessions are already live.
    pub(crate) fn admit(&mut self, th: f32) -> Option<SessionId> {
        let index = if let Some(i) = self.free.pop() {
            self.slots[i as usize].rearm(th);
            i
        } else if self.slots.len() < self.capacity {
            let mut s = Session::new(self.frame_len, self.queue_cap);
            s.rearm(th);
            self.slots.push(s);
            (self.slots.len() - 1) as u32
        } else {
            return None;
        };
        self.active += 1;
        Some(SessionId {
            index,
            generation: self.slots[index as usize].generation,
        })
    }

    /// Retires a live session, recycling its slot (arena kept warm).
    /// Returns `false` for a stale or unknown handle.
    pub(crate) fn retire(&mut self, id: SessionId) -> bool {
        let Some(slot) = self.slots.get_mut(id.index()) else {
            return false;
        };
        if !slot.active || slot.generation != id.generation {
            return false;
        }
        slot.active = false;
        // Stale handles to this tenant die here.
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index() as u32);
        self.active -= 1;
        true
    }

    /// The session behind a handle, if still live.
    pub(crate) fn get(&self, id: SessionId) -> Option<&Session> {
        self.slots
            .get(id.index())
            .filter(|s| s.active && s.generation == id.generation)
    }

    /// Mutable access to the session behind a handle, if still live.
    pub(crate) fn get_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        self.slots
            .get_mut(id.index())
            .filter(|s| s.active && s.generation == id.generation)
    }

    pub(crate) fn slot(&self, index: usize) -> &Session {
        &self.slots[index]
    }

    pub(crate) fn slot_mut(&mut self, index: usize) -> &mut Session {
        &mut self.slots[index]
    }

    pub(crate) fn slots_mut(&mut self) -> &mut [Session] {
        &mut self.slots
    }

    /// Live sessions.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Maximum concurrent sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots ever constructed (live + recycled). Never decreases: retired
    /// arenas stay resident for reuse.
    pub fn allocated_slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_retire_recycles_slots_and_invalidates_handles() {
        let mut slab = SessionSlab::new(2, 8, 2);
        let a = slab.admit(0.1).unwrap();
        let b = slab.admit(0.1).unwrap();
        assert_eq!(slab.active(), 2);
        assert!(slab.admit(0.1).is_none(), "capacity reached");

        assert!(slab.retire(a));
        assert!(!slab.retire(a), "double retire must fail");
        assert_eq!(slab.active(), 1);

        let c = slab.admit(0.2).unwrap();
        assert_eq!(c.index(), a.index(), "freelist must recycle the slot");
        assert_ne!(c, a, "generation must distinguish tenants");
        assert!(slab.get(a).is_none(), "stale handle must not resolve");
        assert!(slab.get(c).is_some());
        assert!(slab.get(b).is_some());
        assert_eq!(slab.allocated_slots(), 2);
    }

    #[test]
    fn queue_is_fifo_and_bounded() {
        let mut slab = SessionSlab::new(1, 4, 2);
        let id = slab.admit(0.1).unwrap();
        let s = slab.get_mut(id).unwrap();
        assert!(s.enqueue(&[1.0; 4], 10, 4));
        assert!(s.enqueue(&[2.0; 4], 20, 4));
        assert!(!s.enqueue(&[3.0; 4], 30, 4), "full queue must drop");
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.head_arrival(), Some(10));
        assert_eq!(s.head_frame(4), &[1.0; 4]);
        assert_eq!(s.pop_head(), 10);
        assert_eq!(s.head_frame(4), &[2.0; 4]);
        // Wrap around the ring.
        assert!(s.enqueue(&[4.0; 4], 40, 4));
        assert_eq!(s.pop_head(), 20);
        assert_eq!(s.head_frame(4), &[4.0; 4]);
        assert_eq!(s.peak_queue, 2);
    }
}
