//! Per-rank communication accounting.
//!
//! The paper's Figures 4 and 5 break each process's MPI time into
//! *collective* and *point-to-point* categories per function. These
//! types record, for every rank, time blocked in and bytes moved by
//! each category. They are the single definition of the accounting
//! structures; the communication layer only calls into them.

/// Communication category, matching the paper's figure split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommClass {
    /// Direct send/recv traffic (e.g. the master's `load_data`).
    PointToPoint,
    /// Traffic inside a collective (e.g. `sync_weights` broadcast).
    Collective,
}

impl CommClass {
    /// Stable lower-snake name used in JSONL export.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CommClass::PointToPoint => "p2p",
            CommClass::Collective => "collective",
        }
    }
}

/// Totals for one category.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassTotals {
    /// Seconds spent in blocking send/recv calls.
    pub seconds: f64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Number of send operations.
    pub sends: u64,
    /// Number of receive operations.
    pub recvs: u64,
}

/// Per-rank communication statistics.
///
/// The accounting *primitives* ([`CommStats::add_seconds`],
/// [`CommStats::on_send`], [`CommStats::on_recv`],
/// [`CommStats::on_collective_done`]) live here so the communication
/// layer carries no bookkeeping logic of its own.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point totals.
    pub p2p: ClassTotals,
    /// Collective totals.
    pub collective: ClassTotals,
    /// Completed collective operations (barrier counts as one).
    pub collectives_completed: u64,
}

impl CommStats {
    /// Mutable totals for a class.
    pub(crate) fn class_mut(&mut self, class: CommClass) -> &mut ClassTotals {
        match class {
            CommClass::PointToPoint => &mut self.p2p,
            CommClass::Collective => &mut self.collective,
        }
    }

    /// Totals for a class.
    pub(crate) fn class(&self, class: CommClass) -> &ClassTotals {
        match class {
            CommClass::PointToPoint => &self.p2p,
            CommClass::Collective => &self.collective,
        }
    }

    /// Attribute blocked seconds to a class.
    pub fn add_seconds(&mut self, class: CommClass, seconds: f64) {
        self.class_mut(class).seconds += seconds;
    }

    /// Account one completed send of `bytes` payload bytes.
    pub fn on_send(&mut self, class: CommClass, bytes: u64) {
        let t = self.class_mut(class);
        t.bytes_sent += bytes;
        t.sends += 1;
    }

    /// Account one completed receive of `bytes` payload bytes.
    pub fn on_recv(&mut self, class: CommClass, bytes: u64) {
        let t = self.class_mut(class);
        t.bytes_received += bytes;
        t.recvs += 1;
    }

    /// Account one completed collective operation.
    pub fn on_collective_done(&mut self) {
        self.collectives_completed += 1;
    }

    /// Total seconds across both classes.
    pub fn total_seconds(&self) -> f64 {
        self.p2p.seconds + self.collective.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_accessors_route_correctly() {
        let mut t = CommStats::default();
        t.class_mut(CommClass::PointToPoint).bytes_sent = 10;
        t.class_mut(CommClass::Collective).bytes_sent = 20;
        assert_eq!(t.p2p.bytes_sent, 10);
        assert_eq!(t.collective.bytes_sent, 20);
        assert_eq!(t.class(CommClass::Collective).bytes_sent, 20);
    }

    #[test]
    fn accounting_primitives_update_the_right_class() {
        let mut t = CommStats::default();
        t.on_send(CommClass::PointToPoint, 64);
        t.on_recv(CommClass::Collective, 128);
        t.add_seconds(CommClass::Collective, 0.25);
        t.on_collective_done();
        assert_eq!(t.p2p.sends, 1);
        assert_eq!(t.p2p.bytes_sent, 64);
        assert_eq!(t.collective.recvs, 1);
        assert_eq!(t.collective.bytes_received, 128);
        assert!((t.collective.seconds - 0.25).abs() < 1e-12);
        assert_eq!(t.collectives_completed, 1);
    }
}
