//! Line-framing property test: a request stream must parse identically
//! no matter how the bytes arrive.
//!
//! The TCP front end reassembles newline-delimited requests from
//! partial reads in a per-connection read buffer. The framing contract
//! at the `Endpoint::handle_line` seam is one `\n`-terminated line, one
//! request, leftovers carried to the next read. This test drives a real
//! TCP server with the *same* request byte stream fragmented many
//! different ways — one shot, byte at a time, fixed 7-byte chunks
//! straddling request boundaries, and seeded-random splits — and
//! requires byte-identical response sequences from every
//! fragmentation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use airchitect_repro::airchitect::{train::TrainConfig, Airchitect2, ModelConfig};
use airchitect_repro::dse::{Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective};
use airchitect_repro::serve::protocol::encode_line;
use airchitect_repro::serve::{
    AdminRequest, Query, RecommendRequest, RecommendService, Request, ServeConfig,
};

fn started_service() -> RecommendService {
    let task = DseTask::table_i_default();
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: 40,
            seed: 0xF8A,
            threads: 0,
            ..GenerateConfig::default()
        },
    );
    let engine = EvalEngine::shared(task);
    let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), Arc::clone(&engine), &ds);
    model.fit(&ds, &TrainConfig::quick());
    let ckpt = model.checkpoint();
    RecommendService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        engine,
        ckpt,
    )
}

/// The request stream under test: recommendations, an interleaved
/// malformed line (must answer an error and keep the connection alive),
/// and a stats probe at the end.
fn request_stream() -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..6u64 {
        let req = Request::Recommend(RecommendRequest {
            id: i,
            query: Query::Gemm {
                m: 8 + i * 31,
                n: 280,
                k: 140,
                dataflow: "os".into(),
            },
            objective: Objective::Latency,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        });
        bytes.extend_from_slice(encode_line(&req).as_bytes());
        bytes.push(b'\n');
        if i == 2 {
            // a malformed line in the middle must not desynchronise the
            // framing of anything after it
            bytes.extend_from_slice(b"{\"Recommend\":{\"id\":oops}}\n");
        }
    }
    bytes
        .extend_from_slice(encode_line(&Request::Admin(AdminRequest::Stats { id: 99 })).as_bytes());
    bytes.push(b'\n');
    bytes
}

/// Writes `stream` split at the given chunk boundaries, then reads
/// exactly `expect` response lines.
fn drive(addr: std::net::SocketAddr, chunks: &[&[u8]], expect: usize) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for chunk in chunks {
        writer.write_all(chunk).expect("write chunk");
        writer.flush().expect("flush");
        // let partial bytes actually land as a separate read on the
        // server side instead of coalescing in the socket buffer
        std::thread::sleep(Duration::from_micros(300));
    }
    let mut responses = Vec::with_capacity(expect);
    for _ in 0..expect {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "truncated response {line:?}");
        responses.push(line);
    }
    responses
}

/// Splits `bytes` into chunks of sizes drawn from a seeded LCG in
/// `1..=max`, so every seed is a distinct reproducible fragmentation.
fn seeded_splits(bytes: &[u8], seed: u64, max: usize) -> Vec<&[u8]> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut chunks = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let take = 1 + (state >> 33) as usize % max;
        let end = (at + take).min(bytes.len());
        chunks.push(&bytes[at..end]);
        at = end;
    }
    chunks
}

#[test]
fn any_fragmentation_parses_identically_on_the_event_front_end() {
    let mut service = started_service();
    let addr = service.listen(("127.0.0.1", 0)).expect("listen");

    let stream = request_stream();
    // 6 recommendations + 1 malformed error + 1 stats; the trailing
    // stats line carries cumulative, time-varying counters (served,
    // uptime, throughput) — framing only guarantees it arrives last and
    // echoes its id, not its bytes
    let expect = 8;
    let check = |responses: &[String], oneshot: &[String], what: &str| {
        assert_eq!(&responses[..7], &oneshot[..7], "{what}");
        assert!(
            responses[7].contains("\"Stats\"") && responses[7].contains("\"id\":99"),
            "{what}: stats probe must answer last: {:?}",
            responses[7]
        );
    };
    let oneshot = drive(addr, &[&stream[..]], expect);
    assert!(
        oneshot[3].contains("malformed"),
        "garbage line must answer an inline error: {:?}",
        oneshot[3]
    );
    check(&oneshot, &oneshot, "one shot");

    // byte at a time: the worst case every reassembly path must hold
    let bytes: Vec<&[u8]> = stream.chunks(1).collect();
    check(&drive(addr, &bytes, expect), &oneshot, "byte-at-a-time");

    // fixed 7-byte chunks deliberately straddle every request boundary
    // (no request line is a multiple of 7 bytes long)
    let sevens: Vec<&[u8]> = stream.chunks(7).collect();
    check(&drive(addr, &sevens, expect), &oneshot, "7-byte chunks");

    for seed in 1..=8u64 {
        let random = seeded_splits(&stream, seed, 23);
        check(
            &drive(addr, &random, expect),
            &oneshot,
            &format!("seeded fragmentation (seed {seed})"),
        );
    }
    service.shutdown();
}
