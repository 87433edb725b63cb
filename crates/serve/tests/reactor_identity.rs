//! Reactor front end vs blocking front end: the result bytes must be
//! identical, and pipelining must be real (out-of-order completion,
//! correlated by client-supplied id) without weakening the typed-error
//! contract.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use sibia_serve::json::Json;
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::{Client, ClientError, ErrorCode};

fn start(reactor: bool, config: ServeConfig) -> Server {
    Server::start(ServeConfig { reactor, ..config }).expect("bind ephemeral port")
}

fn small_server(reactor: bool) -> Server {
    start(
        reactor,
        ServeConfig {
            workers: 2,
            engine_threads: 2,
            ..ServeConfig::default()
        },
    )
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    client
}

/// A representative request mix: every work kind plus an inline kind.
fn request_mix() -> Vec<Json> {
    vec![
        Json::obj(vec![("kind", Json::from("ping"))]),
        Json::obj(vec![
            ("kind", Json::from("encode")),
            ("values", Json::Array((-64i64..64).map(Json::Int).collect())),
            ("bits", Json::from(8u64)),
            ("gsbr_width", Json::from(4u64)),
        ]),
        Json::obj(vec![
            ("kind", Json::from("simulate")),
            ("arch", Json::from("sibia")),
            ("network", Json::from("dgcnn")),
            ("seed", Json::from(7u64)),
            ("sample_cap", Json::from(1024u64)),
        ]),
        Json::obj(vec![
            ("kind", Json::from("sweep")),
            (
                "archs",
                Json::Array(vec![Json::from("bitfusion"), Json::from("sibia")]),
            ),
            ("networks", Json::Array(vec![Json::from("dgcnn")])),
            (
                "seeds",
                Json::Array(vec![Json::from(1u64), Json::from(2u64)]),
            ),
            ("sample_cap", Json::from(512u64)),
        ]),
    ]
}

#[test]
fn reactor_results_are_byte_identical_to_blocking() {
    let blocking = small_server(false);
    let reactor = small_server(true);
    let mut via_blocking = connect(blocking.addr());
    let mut via_reactor = connect(reactor.addr());

    for request in request_mix() {
        let a = via_blocking.call(request.clone()).expect("blocking front");
        let b = via_reactor.call(request.clone()).expect("reactor front");
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "result bytes must not depend on the front end: {request}"
        );
    }

    // The version response advertises which front answered.
    let vb = via_blocking.version().unwrap();
    let vr = via_reactor.version().unwrap();
    assert_eq!(vb.get("front"), Some(&Json::from("blocking")));
    assert_eq!(vr.get("front"), Some(&Json::from("reactor")));
    assert_eq!(
        vb.get("protocol_revision"),
        vr.get("protocol_revision"),
        "both fronts speak the same protocol revision"
    );

    blocking.shutdown();
    reactor.shutdown();
}

#[test]
fn streamed_sweep_on_the_reactor_front_matches_blocking() {
    let blocking = small_server(false);
    let reactor = small_server(true);
    let mut via_blocking = connect(blocking.addr());
    let mut via_reactor = connect(reactor.addr());

    let archs = ["bitfusion", "sibia"];
    let nets = ["dgcnn"];
    let seeds = [1u64, 2];
    let plain = via_blocking
        .sweep(&archs, &nets, &seeds, Some(512))
        .expect("blocking plain sweep");

    let mut frames = 0usize;
    let mut on_progress = |done: u64, total: u64, cell: &str| {
        frames += 1;
        assert_eq!(total, 4);
        assert!((1..=4).contains(&done));
        assert_eq!(cell.split('/').count(), 3, "{cell}");
    };
    let streamed = via_reactor
        .sweep_with(&archs, &nets, &seeds, Some(512), Some(&mut on_progress))
        .expect("reactor streamed sweep");
    assert_eq!(
        streamed.to_string(),
        plain.to_string(),
        "reactor streamed final document must match the blocking plain sweep"
    );
    assert_eq!(
        frames, 4,
        "one progress frame per cell on the reactor front"
    );

    blocking.shutdown();
    reactor.shutdown();
}

#[test]
fn tile_key_is_ignored_on_the_reactor_front() {
    // The reactor front parses with the same grammar: a retired `tile`
    // hint is an unknown key, so the raw reply line — envelope included,
    // with the trace id pinned by a propagated context — must not change.
    let reactor = small_server(true);
    let stream = std::net::TcpStream::connect(reactor.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        out
    };
    let envelope = "\"id\":1,\"trace\":{\"trace_id\":\"pin\"}";
    for params in [
        "\"kind\":\"simulate\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\"seed\":2,\
         \"sample_cap\":512",
        "\"kind\":\"sweep\",\"archs\":[\"bitfusion\",\"sibia\"],\"networks\":[\"dgcnn\"],\
         \"seeds\":[1,2],\"sample_cap\":512",
    ] {
        let plain = reply(&format!("{{{envelope},{params}}}"));
        assert!(plain.contains("\"ok\":true"), "{plain}");
        let hinted = reply(&format!("{{{envelope},{params},\"tile\":7}}"));
        assert_eq!(hinted, plain, "\"tile\" must not change a reply byte");
    }
    reactor.shutdown();
}

#[test]
fn pipelined_responses_complete_out_of_order_by_id() {
    let server = small_server(true);
    let mut client = connect(server.addr());

    // A slow work request followed by an inline ping, pipelined in a burst.
    // The reactor answers the ping on its own thread while the worker is
    // still simulating, so the ping's response *must* overtake.
    let slow_id = client
        .send(Json::obj(vec![
            ("kind", Json::from("simulate")),
            ("arch", Json::from("sibia")),
            ("network", Json::from("dgcnn")),
            ("seed", Json::from(3u64)),
            ("sample_cap", Json::from(4096u64)),
        ]))
        .expect("send simulate");
    let ping_id = client
        .send(Json::obj(vec![("kind", Json::from("ping"))]))
        .expect("send ping");
    assert_eq!(client.outstanding(), 2);

    let (first, outcome) = client.recv().expect("first response");
    assert_eq!(first, ping_id, "the inline ping must overtake the simulate");
    assert_eq!(outcome.unwrap().get("pong"), Some(&Json::Bool(true)));
    let (second, outcome) = client.recv().expect("second response");
    assert_eq!(second, slow_id);
    assert!(outcome.unwrap().get("layers").is_some());
    assert_eq!(client.outstanding(), 0);
    server.shutdown();
}

#[test]
fn pipeline_depth_overflow_is_a_typed_overload() {
    let server = start(
        true,
        ServeConfig {
            workers: 1,
            engine_threads: 1,
            queue_capacity: 64,
            pipeline_depth: 2,
            ..ServeConfig::default()
        },
    );
    let mut client = connect(server.addr());

    // Eight slow requests pipelined on one connection against depth 2: the
    // overflow must come back as typed `overloaded` responses, not hangs or
    // disconnects.
    let burst = 8;
    for seed in 0..burst {
        client
            .send(Json::obj(vec![
                ("kind", Json::from("simulate")),
                ("arch", Json::from("sibia")),
                ("network", Json::from("dgcnn")),
                ("seed", Json::from(seed as u64)),
                ("sample_cap", Json::from(2048u64)),
            ]))
            .expect("send");
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..burst {
        let (_, outcome) = client.recv().expect("every request gets a response");
        match outcome {
            Ok(_) => ok += 1,
            Err(ClientError::Overloaded(msg)) => {
                assert!(msg.contains("pipeline depth"), "got: {msg}");
                overloaded += 1;
            }
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    assert!(ok >= 2, "admitted requests must complete ({ok} ok)");
    assert!(
        overloaded >= 1,
        "a burst of {burst} against depth 2 must reject some"
    );
    // The connection survived every rejection.
    client.ping().expect("connection still alive");
    server.shutdown();
}

#[test]
fn queue_overflow_on_the_reactor_front_is_a_typed_overload() {
    let server = start(
        true,
        ServeConfig {
            workers: 1,
            engine_threads: 1,
            queue_capacity: 1,
            pipeline_depth: 64,
            ..ServeConfig::default()
        },
    );
    let mut client = connect(server.addr());

    let burst = 6;
    for seed in 0..burst {
        client
            .send(Json::obj(vec![
                ("kind", Json::from("simulate")),
                ("arch", Json::from("sibia")),
                ("network", Json::from("dgcnn")),
                ("seed", Json::from(seed as u64 + 100)),
                ("sample_cap", Json::from(2048u64)),
            ]))
            .expect("send");
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..burst {
        let (_, outcome) = client.recv().expect("every request gets a response");
        match outcome {
            Ok(_) => ok += 1,
            Err(e) => {
                assert_eq!(e.server_code(), Some(ErrorCode::Overloaded), "{e}");
                overloaded += 1;
            }
        }
    }
    assert!(ok >= 1);
    assert!(
        overloaded >= 1,
        "queue of 1 must reject part of a burst of {burst}"
    );
    server.shutdown();
}

#[test]
fn response_with_unknown_id_is_a_typed_id_mismatch() {
    // A misbehaving server that answers every request with id 9999.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        writer
            .write_all(b"{\"id\":9999,\"ok\":true,\"result\":{\"pong\":true}}\n")
            .unwrap();
    });

    let mut client = connect(addr);
    match client.ping() {
        Err(ClientError::IdMismatch { got, outstanding }) => {
            assert_eq!(got, Some(9999));
            assert_eq!(outstanding, vec![0], "the real request stays unanswered");
        }
        other => panic!("expected IdMismatch, got {other:?}"),
    }
    fake.join().unwrap();
}
