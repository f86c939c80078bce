//! The wire lifecycle with no sockets: byte slices fed straight into a
//! [`Session`] over a `PathCasAvl`, the staged bytes read straight back.
//! Every case runs under both [`Backend`] tags and asserts they stage the
//! same bytes — the tag may colour expositions, never the protocol.

use std::sync::Arc;

use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;
use replica::{Event, ReplicatedMap};
use server::proto::{decode_response, encode_request, encode_response};
use server::session::{Session, NO_LOG_MSG, READ_ONLY_MSG};
use server::{Backend, Request, Response, ServerOpts, MAX_EVENTS_PER_FRAME, MAX_FRAME};

fn opts(backend: Backend) -> ServerOpts {
    ServerOpts { log: None, read_only: false, backend, reactor_threads: 1 }
}

fn frames(reqs: &[Request]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in reqs {
        encode_request(r, &mut buf);
    }
    buf
}

/// Split staged bytes back into decoded responses.
fn responses(mut staged: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    while !staged.is_empty() {
        let len = u32::from_le_bytes(staged[..4].try_into().unwrap()) as usize;
        out.push(decode_response(&staged[4..4 + len]).unwrap());
        staged = &staged[4 + len..];
    }
    out
}

/// Run `case` once per backend tag, each over a fresh map, and require the
/// two runs to have staged identical bytes.
fn same_on_both_backends(case: impl Fn(Backend, &dyn ConcurrentMap) -> Vec<u8>) -> Vec<u8> {
    let [threads, reactor] = Backend::ALL.map(|backend| case(backend, &PathCasAvl::new()));
    assert_eq!(threads, reactor, "the backend tag changed the staged bytes");
    threads
}

#[test]
fn a_burst_fed_bytewise_stages_the_same_bytes_as_the_burst_fed_whole() {
    let burst = frames(&[
        Request::Put(1, 10),
        Request::Put(2, 20),
        Request::Get(1),
        Request::Rmw(2, 5),
        Request::Scan(1, 8),
        Request::Del(1),
        Request::Get(1),
        Request::Stats,
    ]);
    let whole = same_on_both_backends(|backend, map| {
        let mut s = Session::new(&opts(backend));
        s.feed(&burst);
        assert_eq!(s.process(map, &mut None), 8);
        s.staged().to_vec()
    });
    let bytewise = same_on_both_backends(|backend, map| {
        let mut s = Session::new(&opts(backend));
        let mut frames = 0;
        for b in &burst {
            s.feed(std::slice::from_ref(b));
            frames += s.process(map, &mut None);
        }
        assert_eq!(frames, 8);
        s.staged().to_vec()
    });
    assert_eq!(whole, bytewise);
    let resps = responses(&whole);
    assert_eq!(resps[2], Response::Get(Some(10)));
    assert_eq!(resps[4], Response::Scan(vec![(1, 10), (2, 25 & mapapi::MAX_KEY)]));
    assert_eq!(resps[6], Response::Get(None));
}

#[test]
fn staged_bytes_drain_through_partial_writes() {
    same_on_both_backends(|backend, map| {
        let mut s = Session::new(&opts(backend));
        s.feed(&frames(&[Request::Put(1, 1), Request::Get(1)]));
        s.process(map, &mut None);
        let all = s.staged().to_vec();
        s.wrote(3);
        assert_eq!(s.staged(), &all[3..]);
        s.wrote(all.len() - 3);
        assert!(s.staged().is_empty());
        assert!(!s.is_closing());
        all
    });
}

#[test]
fn a_malformed_payload_stages_one_err_frame_and_closes() {
    let staged = same_on_both_backends(|backend, map| {
        let mut s = Session::new(&opts(backend));
        // A well-framed payload with an unknown opcode, then a valid GET
        // that must never be looked at.
        s.feed(&[&2u32.to_le_bytes()[..], &[0xEE, 0], &frames(&[Request::Get(1)])].concat());
        assert_eq!(s.process(map, &mut None), 1);
        assert!(s.is_closing());
        // Closing is final: more input changes nothing.
        s.feed(&frames(&[Request::Get(1)]));
        assert_eq!(s.process(map, &mut None), 0);
        s.staged().to_vec()
    });
    match &responses(&staged)[..] {
        [Response::Err(msg)] => assert!(msg.contains("opcode"), "got: {msg}"),
        other => panic!("expected exactly one Err frame, got {other:?}"),
    }
}

#[test]
fn a_hostile_length_prefix_closes_with_nothing_staged() {
    let staged = same_on_both_backends(|backend, map| {
        let mut s = Session::new(&opts(backend));
        s.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(s.process(map, &mut None), 0);
        assert!(s.is_closing());
        s.staged().to_vec()
    });
    assert!(staged.is_empty());
}

#[test]
fn a_write_on_a_read_only_session_is_refused_and_the_session_survives() {
    let staged = same_on_both_backends(|backend, map| {
        map.insert(7, 70);
        let mut s = Session::new(&ServerOpts { read_only: true, ..opts(backend) });
        s.feed(&frames(&[
            Request::Put(1, 1),
            Request::Del(7),
            Request::Rmw(7, 1),
            Request::Get(7),
        ]));
        assert_eq!(s.process(map, &mut None), 4);
        assert!(!s.is_closing());
        assert_eq!(map.get(7), Some(70), "a refused write reached the map");
        s.staged().to_vec()
    });
    let refused = Response::Err(READ_ONLY_MSG.into());
    assert_eq!(
        responses(&staged),
        [refused.clone(), refused.clone(), refused, Response::Get(Some(70))]
    );
}

#[test]
fn subscribe_without_a_log_is_refused() {
    let staged = same_on_both_backends(|backend, map| {
        let mut s = Session::new(&opts(backend));
        s.feed(&frames(&[Request::Subscribe(0), Request::Get(1)]));
        assert_eq!(s.process(map, &mut None), 2);
        assert_eq!(s.streaming_after(), None);
        assert!(!s.is_closing());
        s.staged().to_vec()
    });
    assert_eq!(responses(&staged), [Response::Err(NO_LOG_MSG.into()), Response::Get(None)]);
}

#[test]
fn subscribe_with_a_log_keeps_earlier_responses_staged_and_flips_to_streaming() {
    let [threads, reactor] = Backend::ALL.map(|backend| {
        let map = Arc::new(ReplicatedMap::new(Box::new(PathCasAvl::new())));
        let mut s = Session::new(&ServerOpts { log: Some(map.log()), ..opts(backend) });
        s.feed(&frames(&[
            Request::Put(1, 10),
            Request::Put(2, 20),
            Request::Subscribe(1),
            Request::Get(1), // nothing may follow SUBSCRIBE: dropped
        ]));
        assert_eq!(s.process(&*map, &mut None), 3);
        assert_eq!(s.streaming_after(), Some(1));
        let mut expect = Vec::new();
        encode_response(&Response::Put(true), &mut expect);
        encode_response(&Response::Put(true), &mut expect);
        assert_eq!(s.staged(), expect, "responses ahead of SUBSCRIBE must stay staged");

        // The first batch is pulled once they have drained, and the resume
        // point moves past it.
        assert!(!s.pull_events(), "a batch staged behind unwritten responses");
        s.wrote(expect.len());
        assert!(s.pull_events());
        assert_eq!(s.streaming_after(), Some(2));
        let mut expect = Vec::new();
        encode_response(&Response::Events(vec![(2, Event::Put(2, 20))]), &mut expect);
        assert_eq!(s.staged(), expect);

        // Input on a subscribed session is dropped, not executed.
        s.feed(&frames(&[Request::Put(3, 30)]));
        assert_eq!(s.process(&*map, &mut None), 0);
        assert_eq!(map.get(3), None);
        s.staged().to_vec()
    });
    assert_eq!(threads, reactor, "the backend tag changed the staged bytes");
}

/// The backpressure bound: a session stages its next `EVENTS` batch only once
/// the previous one has been written, and at most `MAX_EVENTS_PER_FRAME`
/// events at a time.
#[test]
fn pull_events_stages_one_batch_at_a_time_and_only_once_the_last_has_drained() {
    let [threads, reactor] = Backend::ALL.map(|backend| {
        let map = Arc::new(ReplicatedMap::new(Box::new(PathCasAvl::new())));
        let total = MAX_EVENTS_PER_FRAME as u64 + 5;
        for k in 1..=total {
            map.insert(k, k);
        }
        let mut s = Session::new(&ServerOpts { log: Some(map.log()), ..opts(backend) });
        assert!(!s.pull_events(), "a session that has not subscribed pulls nothing");
        s.feed(&frames(&[Request::Subscribe(0)]));
        assert_eq!(s.process(&*map, &mut None), 1);
        assert!(s.staged().is_empty());

        let mut written = Vec::new();
        assert!(s.pull_events());
        assert_eq!(s.streaming_after(), Some(MAX_EVENTS_PER_FRAME as u64));
        let first = s.staged().len();
        assert!(!s.pull_events(), "a second batch staged behind an unwritten one");
        written.extend_from_slice(&s.staged()[..3]);
        s.wrote(3);
        assert!(!s.pull_events(), "a second batch staged behind a partly written one");
        assert_eq!(s.staged().len(), first - 3);
        written.extend_from_slice(s.staged());
        s.wrote(first - 3);

        assert!(s.pull_events(), "the drained batch frees the next");
        assert_eq!(s.streaming_after(), Some(total));
        written.extend_from_slice(s.staged());
        s.wrote(s.staged().len());
        assert!(!s.pull_events(), "an idle log has nothing to pull");
        assert!(s.staged().is_empty());

        map.remove(1);
        assert!(s.pull_events());
        assert_eq!(s.streaming_after(), Some(total + 1));
        written.extend_from_slice(s.staged());
        written
    });
    assert_eq!(threads, reactor, "the backend tag changed the staged bytes");
    let batches: Vec<Vec<(u64, Event)>> = responses(&threads)
        .into_iter()
        .map(|r| match r {
            Response::Events(entries) => entries,
            other => panic!("expected EVENTS, got {other:?}"),
        })
        .collect();
    let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
    assert_eq!(sizes, [MAX_EVENTS_PER_FRAME, 5, 1]);
    let seqnos: Vec<u64> = batches.iter().flatten().map(|&(seq, _)| seq).collect();
    assert!(seqnos.iter().copied().eq(1..=MAX_EVENTS_PER_FRAME as u64 + 6), "seqnos not dense");
    assert_eq!(batches[2], [(MAX_EVENTS_PER_FRAME as u64 + 6, Event::Del(1))]);
}

#[test]
fn out_of_range_keys_and_values_are_refused_and_the_session_survives() {
    // Keys 0 and MAX_KEY + 1 are the trees' sentinels; a key or value wider
    // than a KCAS word's 62-bit payload would be truncated into another.
    let wide = 1u64 << 62;
    let refused = [
        Request::Get(0),
        Request::Put(5, wide),
        Request::Put((1 << 63) + 5, 1),
        Request::Del(0),
        Request::Get(mapapi::MAX_KEY + 1),
        Request::Rmw(0, 1),
        Request::Rmw(5, wide),
        Request::Del(u64::MAX),
    ];
    let staged = same_on_both_backends(|backend, map| {
        map.insert(7, 70);
        let before = map.stats();
        let mut s = Session::new(&opts(backend));
        for req in refused {
            s.feed(&frames(&[req]));
            assert_eq!(s.process(map, &mut None), 1);
            let last = responses(s.staged()).pop();
            assert!(matches!(last, Some(Response::Err(_))), "{req:?} answered {last:?}");
        }
        assert_eq!(map.stats(), before, "a refused request reached the map");
        // The connection still serves, and the tree still answers.
        s.feed(&frames(&[Request::Put(5, 2), Request::Get(5), Request::Get(7)]));
        assert_eq!(s.process(map, &mut None), 3);
        // `DEL 0` on an empty tree is refused too, rather than never returning.
        let empty = PathCasAvl::new();
        s.feed(&frames(&[Request::Del(0), Request::Get(1)]));
        assert_eq!(s.process(&empty, &mut None), 2);
        assert!(!s.is_closing());
        s.staged().to_vec()
    });
    assert_eq!(
        responses(&staged)[refused.len()..],
        [
            Response::Put(true),
            Response::Get(Some(2)),
            Response::Get(Some(70)),
            Response::Err(format!("key 0 outside 1..={}", mapapi::MAX_KEY)),
            Response::Get(None),
        ]
    );
}
