//! [`PersistValue`] implementations for the AXI vocabulary: vocabulary
//! types, channel beats (with their sim-only `tag`/`uid`/timestamp
//! metadata) and whole port boundaries.
//!
//! In-flight transactions are exactly what makes snapshot/restore hard —
//! a beat frozen mid-fabric must resume with its original uid, hop
//! timestamps and payload bytes so post-restore latency measurements and
//! fingerprints are bit-identical to an uninterrupted run. Everything
//! here is plain data, so it all takes the value shape (reconstructable
//! from bytes alone).

use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};

use crate::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};
use crate::payload::Payload;
use crate::port::AxiPort;
use crate::types::{AxiId, AxiVersion, BurstKind, BurstSize, PortId, Resp};

impl PersistValue for PortId {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.0);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self(r.take_usize()?))
    }
}

impl PersistValue for AxiId {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_u16(self.0);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self(r.take_u16()?))
    }
}

impl PersistValue for AxiVersion {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            AxiVersion::Axi3 => 0,
            AxiVersion::Axi4 => 1,
        });
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(AxiVersion::Axi3),
            1 => Ok(AxiVersion::Axi4),
            _ => Err(PersistError::Corrupt("AxiVersion discriminant")),
        }
    }
}

impl PersistValue for BurstKind {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            BurstKind::Fixed => 0,
            BurstKind::Incr => 1,
            BurstKind::Wrap => 2,
        });
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(BurstKind::Fixed),
            1 => Ok(BurstKind::Incr),
            2 => Ok(BurstKind::Wrap),
            _ => Err(PersistError::Corrupt("BurstKind discriminant")),
        }
    }
}

impl PersistValue for BurstSize {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.encoding());
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let enc = r.take_u8()?;
        if enc > 7 {
            return Err(PersistError::Corrupt("BurstSize encoding"));
        }
        BurstSize::from_bytes(1u64 << enc).map_err(|_| PersistError::Corrupt("BurstSize encoding"))
    }
}

impl PersistValue for Resp {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            Resp::Okay => 0,
            Resp::ExOkay => 1,
            Resp::SlvErr => 2,
            Resp::DecErr => 3,
        });
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(Resp::Okay),
            1 => Ok(Resp::ExOkay),
            2 => Ok(Resp::SlvErr),
            3 => Ok(Resp::DecErr),
            _ => Err(PersistError::Corrupt("Resp discriminant")),
        }
    }
}

impl PersistValue for Payload {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_bytes(self.as_slice());
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Payload::from(r.take_bytes()?))
    }
}

impl PersistValue for ArBeat {
    fn save_value(&self, w: &mut SnapshotWriter) {
        self.id.save_value(w);
        w.put_u64(self.addr);
        w.put_u32(self.len);
        self.size.save_value(w);
        self.burst.save_value(w);
        w.put_u8(self.qos);
        w.put_u64(self.tag);
        w.put_u64(self.issued_at);
        w.put_u64(self.uid);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            id: AxiId::load_value(r)?,
            addr: r.take_u64()?,
            len: r.take_u32()?,
            size: BurstSize::load_value(r)?,
            burst: BurstKind::load_value(r)?,
            qos: r.take_u8()?,
            tag: r.take_u64()?,
            issued_at: r.take_u64()?,
            uid: r.take_u64()?,
        })
    }
}

impl PersistValue for AwBeat {
    fn save_value(&self, w: &mut SnapshotWriter) {
        self.id.save_value(w);
        w.put_u64(self.addr);
        w.put_u32(self.len);
        self.size.save_value(w);
        self.burst.save_value(w);
        w.put_u8(self.qos);
        w.put_u64(self.tag);
        w.put_u64(self.issued_at);
        w.put_u64(self.uid);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            id: AxiId::load_value(r)?,
            addr: r.take_u64()?,
            len: r.take_u32()?,
            size: BurstSize::load_value(r)?,
            burst: BurstKind::load_value(r)?,
            qos: r.take_u8()?,
            tag: r.take_u64()?,
            issued_at: r.take_u64()?,
            uid: r.take_u64()?,
        })
    }
}

impl PersistValue for WBeat {
    fn save_value(&self, w: &mut SnapshotWriter) {
        self.data.save_value(w);
        w.put_u128(self.strb);
        w.put_bool(self.last);
        w.put_u64(self.tag);
        w.put_u64(self.issued_at);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            data: Payload::load_value(r)?,
            strb: r.take_u128()?,
            last: r.take_bool()?,
            tag: r.take_u64()?,
            issued_at: r.take_u64()?,
        })
    }
}

impl PersistValue for RBeat {
    fn save_value(&self, w: &mut SnapshotWriter) {
        self.id.save_value(w);
        self.data.save_value(w);
        self.resp.save_value(w);
        w.put_bool(self.last);
        w.put_u64(self.tag);
        w.put_u64(self.issued_at);
        w.put_u64(self.uid);
        w.put_u64(self.hopped_at);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            id: AxiId::load_value(r)?,
            data: Payload::load_value(r)?,
            resp: Resp::load_value(r)?,
            last: r.take_bool()?,
            tag: r.take_u64()?,
            issued_at: r.take_u64()?,
            uid: r.take_u64()?,
            hopped_at: r.take_u64()?,
        })
    }
}

impl PersistValue for BBeat {
    fn save_value(&self, w: &mut SnapshotWriter) {
        self.id.save_value(w);
        self.resp.save_value(w);
        w.put_u64(self.tag);
        w.put_u64(self.issued_at);
        w.put_u64(self.uid);
        w.put_u64(self.hopped_at);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            id: AxiId::load_value(r)?,
            resp: Resp::load_value(r)?,
            tag: r.take_u64()?,
            issued_at: r.take_u64()?,
            uid: r.take_u64()?,
            hopped_at: r.take_u64()?,
        })
    }
}

impl PersistValue for AxiPort {
    fn save_value(&self, w: &mut SnapshotWriter) {
        self.ar.save_value(w);
        self.aw.save_value(w);
        self.w.save_value(w);
        self.r.save_value(w);
        self.b.save_value(w);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            ar: PersistValue::load_value(r)?,
            aw: PersistValue::load_value(r)?,
            w: PersistValue::load_value(r)?,
            r: PersistValue::load_value(r)?,
            b: PersistValue::load_value(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RouteQueue;
    use sim::fifo::DelayQueue;
    use sim::TimedFifo;

    fn roundtrip<T: PersistValue>(v: &T) -> T {
        let mut w = SnapshotWriter::new();
        v.save_value(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let out = T::load_value(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "trailing bytes after load");
        out
    }

    #[test]
    fn vocabulary_roundtrips() {
        for v in [AxiVersion::Axi3, AxiVersion::Axi4] {
            assert_eq!(roundtrip(&v), v);
        }
        for k in [BurstKind::Fixed, BurstKind::Incr, BurstKind::Wrap] {
            assert_eq!(roundtrip(&k), k);
        }
        for s in BurstSize::ALL {
            assert_eq!(roundtrip(&s), s);
        }
        for resp in [Resp::Okay, Resp::ExOkay, Resp::SlvErr, Resp::DecErr] {
            assert_eq!(roundtrip(&resp), resp);
        }
        assert_eq!(roundtrip(&PortId(9)), PortId(9));
        assert_eq!(roundtrip(&AxiId(1234)), AxiId(1234));
    }

    #[test]
    fn beats_keep_observability_metadata() {
        let ar = ArBeat::new(0x4000, 16, BurstSize::B16)
            .with_id(AxiId(5))
            .with_tag(77)
            .with_issued_at(1000)
            .with_uid(42);
        assert_eq!(roundtrip(&ar), ar);
        assert_eq!(roundtrip(&ar).uid, 42);

        let rb = RBeat::new(AxiId(5), vec![1, 2, 3, 4], true)
            .with_tag(77)
            .with_uid(42)
            .with_hopped_at(1234);
        let back = roundtrip(&rb);
        // Equality excludes uid/hopped_at, so check them explicitly.
        assert_eq!(back, rb);
        assert_eq!(back.uid, 42);
        assert_eq!(back.hopped_at, 1234);

        let bb = BBeat::new(AxiId(2)).with_uid(9).with_hopped_at(55);
        let back = roundtrip(&bb);
        assert_eq!(back.uid, 9);
        assert_eq!(back.hopped_at, 55);
    }

    #[test]
    fn payload_spill_and_inline_roundtrip() {
        let small = Payload::from_fn(8, |i| i as u8);
        assert_eq!(roundtrip(&small), small);
        let big = Payload::from_fn(100, |i| (i * 3) as u8);
        assert_eq!(roundtrip(&big), big);
    }

    #[test]
    fn port_with_in_flight_beats_roundtrips() {
        let mut port = AxiPort::default();
        port.ar
            .push(10, ArBeat::new(0, 4, BurstSize::B4).with_uid(1))
            .unwrap();
        port.w
            .push(11, WBeat::new(vec![9u8; 4], true).with_tag(3))
            .unwrap();
        port.r
            .push(
                12,
                RBeat::new(AxiId(0), vec![7u8; 4], true).with_hopped_at(12),
            )
            .unwrap();
        let back = roundtrip(&port);
        assert_eq!(back.occupancy(), 3);
        assert_eq!(back.lifetime_activity(), port.lifetime_activity());
        assert_eq!(back.next_ready_at(), port.next_ready_at());
    }

    #[test]
    fn hostile_queue_length_is_corrupt_not_an_allocation() {
        // Each queue stream is a header of u64 words, capacity first,
        // then the element count. A count far past the end of the stream
        // must be rejected before any storage is reserved for it.
        type Load = fn(&mut SnapshotReader<'_>) -> Result<(), PersistError>;
        let cases: [(&str, usize, Load); 3] = [
            // capacity, latency, pushed, popped, max_occupancy
            ("TimedFifo", 5, |r| {
                TimedFifo::<ArBeat>::load_value(r).map(drop)
            }),
            ("DelayQueue", 1, |r| {
                DelayQueue::<u64>::load_value(r).map(drop)
            }),
            ("RouteQueue", 1, |r| RouteQueue::load_value(r).map(drop)),
        ];
        for (name, header_words, load) in cases {
            let mut w = SnapshotWriter::new();
            w.put_usize(4);
            for _ in 1..header_words {
                w.put_u64(0);
            }
            w.put_usize(1 << 50);
            let bytes = w.into_bytes();
            let got = load(&mut SnapshotReader::new(&bytes));
            assert!(
                matches!(got, Err(PersistError::Corrupt(_))),
                "{name}: {got:?}"
            );
        }
    }

    #[test]
    fn restored_lifetime_activity_wraps_instead_of_overflowing() {
        // Five empty channel queues, each restored with `pushed` at half
        // the u64 range: the fingerprint sum must wrap, not panic.
        let half = u64::MAX / 2;
        let mut w = SnapshotWriter::new();
        for _ in 0..5 {
            // capacity, latency, pushed, popped, max_occupancy, length
            for word in [4, 0, half, 0, 0, 0] {
                w.put_u64(word);
            }
        }
        let bytes = w.into_bytes();
        let port = AxiPort::load_value(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(port.lifetime_activity(), half.wrapping_mul(5));
    }
}
