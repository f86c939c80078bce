//! Property tests for the replication formats: arbitrary checkpoints and
//! event vectors round-trip exactly, and corrupted bytes are rejected with
//! an error — never a panic, never a silent misparse.

use proptest::prelude::*;
use replica::{Checkpoint, Event, EVENT_WIRE_BYTES};

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Event::Put(k, v)),
        any::<u64>().prop_map(Event::Del),
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Event::Set(k, v)),
    ]
}

fn checkpoint_strategy() -> impl Strategy<Value = Checkpoint> {
    (
        any::<u64>(),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..120),
    )
        .prop_map(|(seqno, pairs)| Checkpoint { seqno, pairs })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checkpoints_roundtrip(ckpt in checkpoint_strategy()) {
        let bytes = ckpt.encode();
        assert_eq!(Checkpoint::decode(&bytes), Ok(ckpt));
    }

    #[test]
    fn corrupted_checkpoints_are_rejected_not_panicked(
        input in (checkpoint_strategy(), 0..4096usize, any::<u8>())
    ) {
        let (ckpt, pos, flip) = input;
        let mut bytes = ckpt.encode();
        let i = pos % bytes.len();
        // Any real bit flip must be caught by the trailing FNV checksum
        // (a zero flip leaves the file intact and must still decode).
        bytes[i] ^= flip;
        match Checkpoint::decode(&bytes) {
            Ok(got) => assert_eq!(got, ckpt, "decode succeeded, so the flip must have been zero"),
            Err(msg) => assert!(!msg.is_empty()),
        }
    }

    #[test]
    fn truncated_checkpoints_are_rejected(input in (checkpoint_strategy(), 0..4096usize)) {
        let (ckpt, cut) = input;
        let bytes = ckpt.encode();
        let len = cut % bytes.len(); // strictly shorter than the full file
        assert!(Checkpoint::decode(&bytes[..len]).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Random garbage essentially never carries a valid FNV checksum;
        // the property under test is "no panic, no bogus success".
        if let Ok(ckpt) = Checkpoint::decode(&bytes) {
            assert_eq!(ckpt.encode(), bytes, "accepted input must be canonical");
        }
    }

    #[test]
    fn event_vectors_roundtrip(events in proptest::collection::vec(event_strategy(), 0..200)) {
        // The change stream's frame body is a flat run of fixed-width
        // events; encode the lot and decode it back element-wise.
        let mut buf = Vec::new();
        for ev in &events {
            ev.encode(&mut buf);
        }
        assert_eq!(buf.len(), events.len() * EVENT_WIRE_BYTES);
        let decoded: Vec<Event> = buf
            .chunks_exact(EVENT_WIRE_BYTES)
            .map(|c| Event::decode(c.try_into().unwrap()).expect("clean bytes must decode"))
            .collect();
        assert_eq!(decoded, events);
    }

    #[test]
    fn arbitrary_event_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), EVENT_WIRE_BYTES..(EVENT_WIRE_BYTES + 1))) {
        let arr: [u8; EVENT_WIRE_BYTES] = raw.as_slice().try_into().unwrap();
        // Kind bytes 1..=3 decode; everything else errors. Either way, no panic.
        let _ = Event::decode(&arr);
    }
}
