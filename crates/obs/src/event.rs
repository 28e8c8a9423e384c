//! The unified structured event schema.
//!
//! One enum covers both engines (`sim` emits model time directly; `net`
//! maps wall clock through its `time_scale` into the same model-time
//! axis) and every master policy. Identifiers are the engine-level ones
//! (`worker`/`lane` indices, `u32` chunk/job/task ids) so an event is
//! meaningful without any policy context.

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
        lane: usize,
        worker: usize,
        dir: Dir,
        chunk: u32,
        blocks: u64,
    },
    /// The transfer occupying `lane` completed and freed the lane.
    PortRelease {
        time: f64,
        lane: usize,
        worker: usize,
        dir: Dir,
        chunk: u32,
        blocks: u64,
    },
    /// A compute step started on a worker.
    ComputeStart {
        time: f64,
        worker: usize,
        chunk: u32,
        step: u32,
        updates: u64,
    },
    /// The step completed. A crash cancels the step in flight, so a
    /// cancelled step never emits its `ComputeEnd` — exactly mirroring
    /// engine semantics.
    ComputeEnd {
        time: f64,
        worker: usize,
        chunk: u32,
        step: u32,
    },
    /// Master decision: a fragment dispatch was issued to a worker.
    Dispatch {
        time: f64,
        worker: usize,
        chunk: u32,
        step: u32,
        mat: MatTag,
        blocks: u64,
    },
    /// Master decision: the stream allocator re-solved the weighted
    /// max-min LP over the active job set.
    LpResolve {
        time: f64,
        jobs: Vec<u32>,
        shares: Vec<f64>,
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
        worker: usize,
        frontier_width: usize,
    },
    /// A worker crashed (lifecycle trace or injected fault).
    WorkerDown { time: f64, worker: usize },
    /// A crashed worker came back up.
    WorkerUp { time: f64, worker: usize },
    /// A chunk's in-progress state was lost to a worker crash.
    ChunkLost {
        time: f64,
        worker: usize,
        chunk: u32,
    },
    /// A federated uplink started shipping a job's operand volume from
    /// the root master down to star `star`.
    UplinkAcquire {
        time: f64,
        star: usize,
        job: u32,
        blocks: u64,
    },
    /// The uplink shipment for `job` landed at star `star`.
    UplinkRelease {
        time: f64,
        star: usize,
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

    /// Schema name of the variant (used as the Perfetto event name
    /// prefix and in metrics counter keys).
    pub fn kind(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// Position of the variant in [`KIND_NAMES`].
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            ObsEvent::PortAcquire { .. } => 0,
            ObsEvent::PortRelease { .. } => 1,
            ObsEvent::ComputeStart { .. } => 2,
            ObsEvent::ComputeEnd { .. } => 3,
            ObsEvent::Dispatch { .. } => 4,
            ObsEvent::LpResolve { .. } => 5,
            ObsEvent::DeficitCredit { .. } => 6,
            ObsEvent::FrontierPromote { .. } => 7,
            ObsEvent::WorkerDown { .. } => 8,
            ObsEvent::WorkerUp { .. } => 9,
            ObsEvent::ChunkLost { .. } => 10,
            ObsEvent::UplinkAcquire { .. } => 11,
            ObsEvent::UplinkRelease { .. } => 12,
            ObsEvent::MemoryStallBegin { .. } => 13,
            ObsEvent::MemoryStallEnd { .. } => 14,
            ObsEvent::JobArrived { .. } => 15,
            ObsEvent::JobAdmitted { .. } => 16,
            ObsEvent::JobCompleted { .. } => 17,
        }
    }
}

/// Schema names of the [`ObsEvent`] variants, in declaration order.
pub(crate) const KIND_NAMES: [&str; 18] = [
    "port_acquire",
    "port_release",
    "compute_start",
    "compute_end",
    "dispatch",
    "lp_resolve",
    "deficit_credit",
    "frontier_promote",
    "worker_down",
    "worker_up",
    "chunk_lost",
    "uplink_acquire",
    "uplink_release",
    "memory_stall_begin",
    "memory_stall_end",
    "job_arrived",
    "job_admitted",
    "job_completed",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant keeps the schema name it has always had (Perfetto
    /// event names and `events.<kind>` counter keys are built from it).
    #[test]
    fn kinds_name_their_variants() {
        let (time, worker, chunk, step, job, blocks) = (0.0, 0, 0, 0, 0, 0);
        let (lane, star, dir) = (0, 0, Dir::ToWorker);
        let named = [
            (
                ObsEvent::PortAcquire {
                    time,
                    lane,
                    worker,
                    dir,
                    chunk,
                    blocks,
                },
                "port_acquire",
            ),
            (
                ObsEvent::PortRelease {
                    time,
                    lane,
                    worker,
                    dir,
                    chunk,
                    blocks,
                },
                "port_release",
            ),
            (
                ObsEvent::ComputeStart {
                    time,
                    worker,
                    chunk,
                    step,
                    updates: 0,
                },
                "compute_start",
            ),
            (
                ObsEvent::ComputeEnd {
                    time,
                    worker,
                    chunk,
                    step,
                },
                "compute_end",
            ),
            (
                ObsEvent::Dispatch {
                    time,
                    worker,
                    chunk,
                    step,
                    mat: MatTag::A,
                    blocks,
                },
                "dispatch",
            ),
            (
                ObsEvent::LpResolve {
                    time,
                    jobs: vec![],
                    shares: vec![],
                },
                "lp_resolve",
            ),
            (
                ObsEvent::DeficitCredit {
                    time,
                    job,
                    port_seconds: 0.0,
                },
                "deficit_credit",
            ),
            (
                ObsEvent::FrontierPromote {
                    time,
                    job,
                    task: 0,
                    worker,
                    frontier_width: 0,
                },
                "frontier_promote",
            ),
            (ObsEvent::WorkerDown { time, worker }, "worker_down"),
            (ObsEvent::WorkerUp { time, worker }, "worker_up"),
            (
                ObsEvent::ChunkLost {
                    time,
                    worker,
                    chunk,
                },
                "chunk_lost",
            ),
            (
                ObsEvent::UplinkAcquire {
                    time,
                    star,
                    job,
                    blocks,
                },
                "uplink_acquire",
            ),
            (
                ObsEvent::UplinkRelease {
                    time,
                    star,
                    job,
                    blocks,
                },
                "uplink_release",
            ),
            (
                ObsEvent::MemoryStallBegin { time, job },
                "memory_stall_begin",
            ),
            (ObsEvent::MemoryStallEnd { time, job }, "memory_stall_end"),
            (ObsEvent::JobArrived { time, job }, "job_arrived"),
            (ObsEvent::JobAdmitted { time, job }, "job_admitted"),
            (ObsEvent::JobCompleted { time, job }, "job_completed"),
        ];
        assert_eq!(named.len(), KIND_NAMES.len());
        for (n, (ev, name)) in named.iter().enumerate() {
            assert_eq!(ev.kind_index(), n, "{name}");
            assert_eq!(ev.kind(), *name);
        }
    }
}
