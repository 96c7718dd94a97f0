//! The event model: what the runtime records.
//!
//! Events are `Copy` and fixed-size so they can live in lock-free ring
//! buffers. Names are `&'static str` — every instrumentation site names
//! its span with a literal (phase names, "barrier", schedule kinds), so no
//! allocation happens on the hot path.

/// What kind of time span or marker an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Time a thread spent blocked in a barrier (entry to exit).
    BarrierWait = 0,
    /// Time a thread spent waiting to enter a critical section.
    CriticalWait = 1,
    /// One work-sharing chunk acquisition; `arg` is the chunk length in
    /// iterations (static, dynamic and guided schedules all emit these).
    ChunkAcquire = 2,
    /// A fork/join parallel region, one span per participating thread.
    Region = 3,
    /// A benchmark phase (names match `PhaseProfile` names).
    Phase = 4,
    /// A point-in-time counter sample; `arg` carries the value.
    Counter = 5,
    /// Wire-to-request parsing of one served request; `arg` is the
    /// request's trace id.
    ProtoParse = 6,
    /// Time a served request spent in its shard's admission queue
    /// before a worker picked it up; `arg` is the trace id.
    QueueWait = 7,
    /// Merging admitted jobs into one engine plan (batch assembly);
    /// `arg` is the trace id of the batch's first job.
    DedupMerge = 8,
    /// A prediction-cache probe outcome: the span is zero-length and the
    /// name is `"cache-hit"` or `"cache-miss"`; `arg` is the trace id.
    CacheProbe = 9,
    /// Engine execution of a (possibly merged) plan; `arg` is the trace
    /// id of the batch's first job.
    EngineExec = 10,
    /// Serializing and writing a reply back to the client; `arg` is the
    /// trace id.
    ReplyWrite = 11,
    /// A fault-injection site fired (chaos testing); the name is the
    /// fault site key and `arg` is the site's 1-based occurrence index.
    FaultInject = 12,
    /// A recovery action taken in response to a fault (worker respawn,
    /// stalled-connection shed, load-shed); `arg` is action-specific.
    FaultRecover = 13,
}

impl EventKind {
    /// Stable lowercase label, used as the Chrome-trace category.
    pub(crate) fn label(self) -> &'static str {
        match self {
            EventKind::BarrierWait => "barrier-wait",
            EventKind::CriticalWait => "critical-wait",
            EventKind::ChunkAcquire => "chunk-acquire",
            EventKind::Region => "region",
            EventKind::Phase => "phase",
            EventKind::Counter => "counter",
            EventKind::ProtoParse => "proto-parse",
            EventKind::QueueWait => "queue-wait",
            EventKind::DedupMerge => "dedup-merge",
            EventKind::CacheProbe => "cache-probe",
            EventKind::EngineExec => "engine-exec",
            EventKind::ReplyWrite => "reply-write",
            EventKind::FaultInject => "fault-inject",
            EventKind::FaultRecover => "fault-recover",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(EventKind::BarrierWait),
            1 => Some(EventKind::CriticalWait),
            2 => Some(EventKind::ChunkAcquire),
            3 => Some(EventKind::Region),
            4 => Some(EventKind::Phase),
            5 => Some(EventKind::Counter),
            6 => Some(EventKind::ProtoParse),
            7 => Some(EventKind::QueueWait),
            8 => Some(EventKind::DedupMerge),
            9 => Some(EventKind::CacheProbe),
            10 => Some(EventKind::EngineExec),
            11 => Some(EventKind::ReplyWrite),
            12 => Some(EventKind::FaultInject),
            13 => Some(EventKind::FaultRecover),
            _ => None,
        }
    }
}

/// One recorded span or marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// What this event measures.
    pub kind: EventKind,
    /// Site name: a phase name, `"barrier"`, a schedule kind, etc.
    pub name: &'static str,
    /// Team-relative thread id of the recording thread.
    pub tid: u32,
    /// Start time in microseconds since the recorder epoch.
    pub start_us: u64,
    /// Duration in microseconds (0 for markers).
    pub dur_us: u64,
    /// Kind-specific payload (chunk length, counter value, sequence no).
    pub arg: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_u8() {
        for kind in [
            EventKind::BarrierWait,
            EventKind::CriticalWait,
            EventKind::ChunkAcquire,
            EventKind::Region,
            EventKind::Phase,
            EventKind::Counter,
            EventKind::ProtoParse,
            EventKind::QueueWait,
            EventKind::DedupMerge,
            EventKind::CacheProbe,
            EventKind::EngineExec,
            EventKind::ReplyWrite,
            EventKind::FaultInject,
            EventKind::FaultRecover,
        ] {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            EventKind::BarrierWait.label(),
            EventKind::CriticalWait.label(),
            EventKind::ChunkAcquire.label(),
            EventKind::Region.label(),
            EventKind::Phase.label(),
            EventKind::Counter.label(),
            EventKind::ProtoParse.label(),
            EventKind::QueueWait.label(),
            EventKind::DedupMerge.label(),
            EventKind::CacheProbe.label(),
            EventKind::EngineExec.label(),
            EventKind::ReplyWrite.label(),
            EventKind::FaultInject.label(),
            EventKind::FaultRecover.label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
