//! The unified structured event schema.
//!
//! One enum covers both engines (`sim` emits model time directly; `net`
//! maps wall clock through its `time_scale` into the same model-time
//! axis) and every master policy. Identifiers are the engine-level ones
//! (`worker`/`lane`/`star` indices and chunk/job/task ids, all `u32`) so
//! an event is meaningful without any policy context.
//!
//! An event is 32 bytes: every view reads the whole log, so the log's
//! size is what recording and reading back cost. Indices are narrowed
//! by [`ObsEvent::narrow`] inside the emitting closure (a detached sink
//! never runs it) and widened again where [`spans`](crate::spans) pairs
//! them.

/// Direction of a wire transfer on the master's port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Master sends operand blocks out to a worker.
    ToWorker,
    /// Master retrieves result blocks back from a worker.
    ToMaster,
}

impl Dir {
    /// Short label used in trace tracks and rendered timelines.
    pub fn label(self) -> &'static str {
        match self {
            Dir::ToWorker => "send",
            Dir::ToMaster => "recv",
        }
    }
}

/// Matrix operand carried by a master→worker fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatTag {
    A,
    B,
    C,
}

impl MatTag {
    /// Single-letter operand label.
    pub fn label(self) -> &'static str {
        match self {
            MatTag::A => "A",
            MatTag::B => "B",
            MatTag::C => "C",
        }
    }
}

/// One structured observability event. All times are model seconds.
#[derive(Clone, Debug, PartialEq)]
pub enum ObsEvent {
    /// A transfer was admitted onto contention lane `lane` of the
    /// master's port.
    PortAcquire {
        time: f64,
        lane: u32,
        worker: u32,
        dir: Dir,
        chunk: u32,
        blocks: u64,
    },
    /// The transfer occupying `lane` completed and freed the lane.
    PortRelease {
        time: f64,
        lane: u32,
        worker: u32,
        dir: Dir,
        chunk: u32,
        blocks: u64,
    },
    /// A compute step started on a worker.
    ComputeStart {
        time: f64,
        worker: u32,
        chunk: u32,
        step: u32,
        updates: u64,
    },
    /// The step completed. A crash cancels the step in flight, so a
    /// cancelled step never emits its `ComputeEnd` — exactly mirroring
    /// engine semantics.
    ComputeEnd {
        time: f64,
        worker: u32,
        chunk: u32,
        step: u32,
    },
    /// Master decision: a fragment dispatch was issued to a worker.
    Dispatch {
        time: f64,
        worker: u32,
        chunk: u32,
        step: u32,
        mat: MatTag,
        blocks: u64,
    },
    /// Master decision: the stream allocator re-solved the weighted
    /// max-min LP over the active job set; `shares` holds one
    /// `(job, share)` per active job. One boxed slice keeps the variant
    /// (and so every event) at 32 bytes.
    LpResolve {
        time: f64,
        shares: Box<[(u32, f64)]>,
    },
    /// Master decision: a job's deficit counter was charged for port
    /// seconds consumed by one of its fragments.
    DeficitCredit {
        time: f64,
        job: u32,
        port_seconds: f64,
    },
    /// Master decision: a ready DAG task was promoted out of the
    /// frontier onto a worker lane. `frontier_width` counts the tasks
    /// that were ready immediately before the promotion.
    FrontierPromote {
        time: f64,
        job: u32,
        task: u32,
        worker: u32,
        frontier_width: u32,
    },
    /// A worker crashed (lifecycle trace or injected fault).
    WorkerDown { time: f64, worker: u32 },
    /// A crashed worker came back up.
    WorkerUp { time: f64, worker: u32 },
    /// A chunk's in-progress state was lost to a worker crash.
    ChunkLost { time: f64, worker: u32, chunk: u32 },
    /// A federated uplink started shipping a job's operand volume from
    /// the root master down to star `star`.
    UplinkAcquire {
        time: f64,
        star: u32,
        job: u32,
        blocks: u64,
    },
    /// The uplink shipment for `job` landed at star `star`.
    UplinkRelease {
        time: f64,
        star: u32,
        job: u32,
        blocks: u64,
    },
    /// The stream/DAG master found work ready but could not admit it
    /// for lack of worker memory (no fitting slot / capacity). One
    /// event per stall episode, closed by `MemoryStallEnd`.
    MemoryStallBegin { time: f64, job: u32 },
    /// The memory/slot stall for `job` ended (admission or promotion
    /// became possible again).
    MemoryStallEnd { time: f64, job: u32 },
    /// A job entered the system (arrival event).
    JobArrived { time: f64, job: u32 },
    /// The stream master admitted an arrived job into the active set.
    JobAdmitted { time: f64, job: u32 },
    /// A job's last result block reached the master.
    JobCompleted { time: f64, job: u32 },
}

impl ObsEvent {
    /// Model-time stamp of the event, whatever its variant.
    pub fn time(&self) -> f64 {
        match *self {
            ObsEvent::PortAcquire { time, .. }
            | ObsEvent::PortRelease { time, .. }
            | ObsEvent::ComputeStart { time, .. }
            | ObsEvent::ComputeEnd { time, .. }
            | ObsEvent::Dispatch { time, .. }
            | ObsEvent::LpResolve { time, .. }
            | ObsEvent::DeficitCredit { time, .. }
            | ObsEvent::FrontierPromote { time, .. }
            | ObsEvent::WorkerDown { time, .. }
            | ObsEvent::WorkerUp { time, .. }
            | ObsEvent::ChunkLost { time, .. }
            | ObsEvent::UplinkAcquire { time, .. }
            | ObsEvent::UplinkRelease { time, .. }
            | ObsEvent::MemoryStallBegin { time, .. }
            | ObsEvent::MemoryStallEnd { time, .. }
            | ObsEvent::JobArrived { time, .. }
            | ObsEvent::JobAdmitted { time, .. }
            | ObsEvent::JobCompleted { time, .. } => time,
        }
    }

    /// Narrows an engine index — a worker, lane or star index, a DAG
    /// task id or frontier width — to the schema's `u32`. Call it inside
    /// the emitting closure, so a detached sink never pays for it.
    ///
    /// # Panics
    ///
    /// If `index` exceeds `u32::MAX`, which the engines never reach.
    #[inline]
    pub fn narrow(index: usize) -> u32 {
        u32::try_from(index).expect(
            "an event index fits in u32: indices are below the platform's worker count \
             (and a DAG's task count)",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every view reads the whole log — the pairing pass, attribution,
    /// the exporters — so a fat variant taxes all of them,
    /// and every push while recording. Keep each variant's payload
    /// within 24 bytes beside the tag (box anything variable-length).
    #[test]
    fn an_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<ObsEvent>(), 32);
    }

    #[test]
    fn narrow_keeps_every_u32_index() {
        for i in [0, 1, 4095, u32::MAX as usize] {
            assert_eq!(ObsEvent::narrow(i) as usize, i);
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "below the platform's worker count")]
    fn narrow_names_the_invariant_it_relies_on() {
        ObsEvent::narrow(u32::MAX as usize + 1);
    }
}
