//! Transport robustness: hostile or unlucky clients — malformed
//! frames, truncated frames, mid-request disconnects, queue-full
//! shedding — must never take the server down or wedge other clients.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use retri_service::proto::{encode_request, Reply, Request, ALL_SHARDS, MAX_FRAME_BYTES};
use retri_service::{Server, ServiceConfig, StrategyKind, TcpClient};

fn small_config(seed: u64) -> ServiceConfig {
    let mut config = ServiceConfig::new(seed);
    config.shards = 1;
    config.bits = 12;
    config
}

/// Raw frame write: length prefix plus payload, bypassing the client
/// codec so tests can ship bytes no well-behaved client would.
fn write_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame).expect("raw frame write");
}

fn read_raw_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).expect("reply length");
    let len = u32::from_le_bytes(len_buf) as usize;
    assert!((1..=MAX_FRAME_BYTES).contains(&len));
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("reply payload");
    payload
}

fn assert_server_serves(addr: std::net::SocketAddr) {
    let mut client = TcpClient::connect(addr).expect("fresh connection");
    assert_eq!(client.request(&Request::Ping).expect("ping"), Reply::Pong);
    let reply = client
        .request(&Request::Alloc {
            shard: 0,
            strategy: StrategyKind::Uniform,
            count: 8,
        })
        .expect("alloc");
    let Reply::Ids(ids) = reply else {
        panic!("expected IDS, got {reply:?}");
    };
    assert_eq!(ids.len(), 8);
}

#[test]
fn malformed_payload_gets_err_and_the_connection_survives() {
    let server = Server::start(&small_config(1), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    // Unknown opcode.
    write_raw_frame(&mut stream, &[0x7F, 1, 2, 3]);
    let reply = read_raw_reply(&mut stream);
    assert_eq!(reply[0], 0x86, "expected ERR opcode, got {:#x}", reply[0]);

    // Valid ALLOC opcode with a truncated body.
    write_raw_frame(&mut stream, &[0x01, 0x00]);
    let reply = read_raw_reply(&mut stream);
    assert_eq!(reply[0], 0x86);

    // The same connection still serves well-formed requests.
    let mut payload = Vec::new();
    encode_request(&Request::Ping, &mut payload);
    write_raw_frame(&mut stream, &payload);
    assert_eq!(read_raw_reply(&mut stream), [0x84], "PONG after two ERRs");

    drop(stream);
    assert_server_serves(server.addr());
    server.shutdown();
}

#[test]
fn oversized_frame_length_closes_only_that_connection() {
    let server = Server::start(&small_config(2), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
    stream.write_all(&huge).expect("bogus length");
    let reply = read_raw_reply(&mut stream);
    assert_eq!(reply[0], 0x86, "ERR before the close");
    // The server hangs up after an unframeable length.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).expect("EOF probe"), 0);

    assert_server_serves(server.addr());
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_leaves_the_server_serving() {
    let server = Server::start(&small_config(3), "127.0.0.1:0").expect("bind");
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Claim 100 payload bytes, deliver 10, vanish.
        stream.write_all(&100u32.to_le_bytes()).expect("length");
        stream.write_all(&[0u8; 10]).expect("partial payload");
    }
    assert_server_serves(server.addr());
    server.shutdown();
}

#[test]
fn disconnect_after_request_without_reading_reply_is_harmless() {
    let server = Server::start(&small_config(4), "127.0.0.1:0").expect("bind");
    for _ in 0..5 {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut payload = Vec::new();
        encode_request(
            &Request::Alloc {
                shard: 0,
                strategy: StrategyKind::Tribles128,
                count: 1000,
            },
            &mut payload,
        );
        write_raw_frame(&mut stream, &payload);
        // Drop without reading the reply: the shard thread's send to
        // the vanished connection is discarded, not fatal.
    }
    assert_server_serves(server.addr());
    server.shutdown();
}

#[test]
fn queue_full_sheds_with_busy_and_counts_it() {
    let mut config = small_config(5);
    config.queue_depth = 1;
    let server = Server::start(&config, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Occupy the single shard thread with a long WAIT...
    let waiter = std::thread::spawn(move || {
        let mut client = TcpClient::connect(addr).expect("waiter connect");
        client.request(&Request::Wait {
            shard: 0,
            micros: 600_000,
        })
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...fill the depth-1 queue with a second request...
    let filler = std::thread::spawn(move || {
        let mut client = TcpClient::connect(addr).expect("filler connect");
        client.request(&Request::Alloc {
            shard: 0,
            strategy: StrategyKind::Uniform,
            count: 4,
        })
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...so a third is shed immediately with BUSY.
    let mut shed = TcpClient::connect(addr).expect("shed connect");
    let reply = shed
        .request(&Request::Alloc {
            shard: 0,
            strategy: StrategyKind::Uniform,
            count: 4,
        })
        .expect("shed request");
    assert_eq!(
        reply,
        Reply::Busy,
        "depth-1 queue must shed the third request"
    );

    assert_eq!(
        waiter.join().expect("waiter thread").expect("waiter reply"),
        Reply::Pong
    );
    let filled = filler.join().expect("filler thread").expect("filler reply");
    assert!(matches!(filled, Reply::Ids(ref ids) if ids.len() == 4));

    // The shed connection is still usable, and STATS records the shed.
    let stats = shed
        .request(&Request::Stats { shard: ALL_SHARDS })
        .expect("stats");
    let Reply::Stats(entries) = stats else {
        panic!("expected STATS, got {stats:?}");
    };
    assert!(
        entries.iter().all(|e| e.busy >= 1),
        "per-shard busy counter must record the shed request"
    );
    assert_server_serves(addr);
    server.shutdown();
}

#[test]
fn bad_shard_and_bad_count_get_structured_errors() {
    let server = Server::start(&small_config(6), "127.0.0.1:0").expect("bind");
    let mut client = TcpClient::connect(server.addr()).expect("connect");

    let reply = client
        .request(&Request::Alloc {
            shard: 7,
            strategy: StrategyKind::Uniform,
            count: 1,
        })
        .expect("out-of-range shard");
    assert!(
        matches!(reply, Reply::Err { code: 2, .. }),
        "expected BadShard ERR, got {reply:?}"
    );

    // A zero count is rejected by the codec before it ships, so push it
    // raw: opcode ALLOC, shard 0, strategy 0, count 0.
    let mut stream = TcpStream::connect(server.addr()).expect("raw connect");
    let mut payload = vec![0x01];
    payload.extend_from_slice(&0u16.to_le_bytes());
    payload.push(0);
    payload.extend_from_slice(&0u32.to_le_bytes());
    write_raw_frame(&mut stream, &payload);
    let raw_reply = read_raw_reply(&mut stream);
    assert_eq!(raw_reply[0], 0x86, "zero count must decode to ERR");
    assert_eq!(raw_reply[1], 3, "zero count must get the BadCount code");

    assert_server_serves(server.addr());
    server.shutdown();
}
