//! Server-level tests: real loopback sockets against a live gateway —
//! bit-identity over the wire, deadline propagation, typed rejection
//! verdicts, transport hardening (oversized/truncated/slow frames), the
//! `/metrics` endpoint, and graceful drain with conserved counters.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_gateway::{Admission, Gateway, OverloadPolicy};
use dp_minifloat::FloatFormat;
use dp_net::wire::Request;
use dp_net::{scrape_metrics, NetClient, NetServer, ResponseBody, WireStatus};
use dp_posit::PositFormat;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
    let split = dp_datasets::iris::load(31).split(50, 31).normalized();
    let mut mlp = Mlp::new(&[4, 8, 3], 31);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 25,
            batch_size: 16,
            lr: 0.02,
            seed: 31,
        },
    );
    (mlp, split)
}

fn mixed_formats() -> Vec<NumericFormat> {
    vec![
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
    ]
}

/// Boots a gateway with the iris model in every mixed format plus a
/// server on an OS-assigned loopback port.
fn boot() -> (
    Arc<Gateway>,
    NetServer,
    Vec<QuantizedMlp>,
    dp_datasets::TrainTest,
) {
    let (mlp, split) = trained_iris();
    let gw = Arc::new(
        Gateway::builder()
            .workers(2)
            .chunk_samples(8)
            .queue_capacity(32)
            .policy(OverloadPolicy::ShedNewest)
            .build(),
    );
    let mut models = Vec::new();
    for fmt in mixed_formats() {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        gw.registry().register("iris", q.clone()).unwrap();
        models.push(q);
    }
    let server = NetServer::builder(Arc::clone(&gw))
        .allow_remote_shutdown(true)
        .read_timeout(Duration::from_millis(400))
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    (gw, server, models, split)
}

fn batch(split: &dp_datasets::TrainTest, n: usize) -> Vec<Vec<f32>> {
    split
        .test
        .features
        .iter()
        .cycle()
        .take(n)
        .cloned()
        .collect()
}

#[test]
fn forward_and_classify_round_trip_bit_identical_across_formats() {
    let (_gw, server, models, split) = boot();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).unwrap();
    let xs = batch(&split, 6);
    for q in &models {
        let fmt = q.format.to_string();
        let direct_bits: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        let resp = client.forward("iris", &fmt, 0, xs.clone()).unwrap();
        assert_eq!(resp.body, ResponseBody::ForwardOk(direct_bits), "{fmt}");

        let direct_classes: Vec<u32> = xs.iter().map(|x| q.infer(x) as u32).collect();
        let resp = client.classify("iris", &fmt, 0, xs.clone()).unwrap();
        assert_eq!(resp.body, ResponseBody::ClassifyOk(direct_classes), "{fmt}");
    }
}

#[test]
fn pipelined_requests_come_back_in_order_with_ids_echoed() {
    let (_gw, server, models, split) = boot();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let fmt = models[0].format.to_string();
    let xs = batch(&split, 2);
    let reqs: Vec<Request> = (0..10)
        .map(|_| client.classify_request("iris", &fmt, 0, xs.clone()))
        .collect();
    for req in &reqs {
        client.send(req).unwrap();
    }
    for req in &reqs {
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, req.id());
        assert!(matches!(resp.body, ResponseBody::ClassifyOk(_)));
    }
}

#[test]
fn past_deadline_and_unknown_model_get_typed_verdicts() {
    let (gw, server, models, split) = boot();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let fmt = models[0].format.to_string();

    // Hold dispatch so a 1 ms relative deadline is unambiguously gone by
    // the time the dispatcher pops the request.
    gw.pause_dispatch();
    let req = client.forward_request("iris", &fmt, 1, batch(&split, 4));
    client.send(&req).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    gw.resume_dispatch();
    let resp = client.recv().unwrap();
    assert_eq!(resp.id, req.id());
    assert_eq!(
        resp.status(),
        WireStatus::DeadlineExceeded,
        "{:?}",
        resp.body
    );

    let resp = client.classify("nope", &fmt, 0, batch(&split, 1)).unwrap();
    assert_eq!(resp.status(), WireStatus::ModelUnknown);
    match resp.body {
        ResponseBody::Rejected { detail, .. } => assert!(detail.contains("nope"), "{detail}"),
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn wrong_width_request_gets_unsupported_and_the_connection_keeps_serving() {
    // Regression: `n_features` is whatever the client says, and nothing
    // between the wire decoder and the pool compared it with the model's
    // input width — so one client's short row panicked a worker, failed
    // the requests coalesced with it and spent the panic budget (two of
    // them degraded the server for everyone).
    let (mlp, split) = trained_iris();
    let gw = Arc::new(
        Gateway::builder()
            .workers(1)
            .chunk_samples(16)
            .queue_capacity(32)
            .panic_budget(dp_serve::PanicBudget {
                max_panics: 1,
                window: Duration::from_secs(30),
            })
            .build(),
    );
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    gw.registry().register("iris", q.clone()).unwrap();
    let server = NetServer::builder(Arc::clone(&gw))
        .max_inflight(32)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let fmt = q.format.to_string();

    // Ten well-formed single-sample requests, each followed by one with a
    // three-feature row, held in the ring together.
    gw.pause_dispatch();
    let good = batch(&split, 10);
    let mut sent = Vec::new();
    for x in &good {
        for row in [x.clone(), x[..3].to_vec()] {
            let req = client.forward_request("iris", &fmt, 0, vec![row]);
            client.send(&req).unwrap();
            sent.push(req.id());
        }
    }
    wait_until("the good half is queued", || gw.queue_depth() == 10);
    gw.resume_dispatch();
    for (i, id) in sent.iter().enumerate() {
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, *id);
        if i % 2 == 0 {
            let bits = vec![q.forward_bits(&good[i / 2])];
            assert_eq!(resp.body, ResponseBody::ForwardOk(bits), "batch-mate {i}");
        } else {
            assert_eq!(resp.status(), WireStatus::Unsupported, "{:?}", resp.body);
        }
    }
    assert_eq!(gw.engine().stats().panics, 0);
    assert!(!gw.is_degraded());
    assert_eq!(gw.snapshot().unsupported, 10);
    // Same connection, still open, still serving.
    let resp = client.classify("iris", &fmt, 0, good.clone()).unwrap();
    let classes: Vec<u32> = good.iter().map(|x| q.infer(x) as u32).collect();
    assert_eq!(resp.body, ResponseBody::ClassifyOk(classes));
}

#[test]
fn oversized_frame_is_rejected_without_reading_the_body() {
    let (_gw, server, _models, _split) = boot();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Claim a frame just over the cap; send no body at all. The reject
    // must come from the prefix alone.
    let len = dp_net::DEFAULT_MAX_FRAME_BYTES + 1;
    raw.write_all(&len.to_le_bytes()).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // server replies then closes
    let payload = &reply[4..];
    assert_eq!(payload[0], WireStatus::ProtocolError as u8);
    assert_eq!(
        server
            .metrics()
            .oversized_frames
            .load(std::sync::atomic::Ordering::Relaxed), // relaxed-ok: single quiesced counter read
        1
    );
    assert_eq!(
        server
            .metrics()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed), // relaxed-ok: single quiesced counter read
        1
    );
}

#[test]
fn garbage_opcode_gets_protocol_error_and_close() {
    let (_gw, server, _models, _split) = boot();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let payload = [0x77u8, 0, 0, 0, 0, 0, 0, 0, 0]; // bogus opcode + id
    raw.write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&payload).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert_eq!(reply[4], WireStatus::ProtocolError as u8);
}

#[test]
fn truncated_frame_counts_as_protocol_error() {
    let (_gw, server, _models, _split) = boot();
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        // Drop the connection mid-frame.
    }
    let t0 = std::time::Instant::now();
    loop {
        let n = server
            .metrics()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed); // relaxed-ok: polled until visible; no data rides on it
        if n == 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "torn frame never counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn slow_loris_partial_frame_times_out() {
    let (_gw, server, _models, _split) = boot(); // read_timeout = 400 ms
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&32u32.to_le_bytes()).unwrap();
    raw.write_all(&[1u8; 4]).unwrap(); // 4 of 32 payload bytes, then stall
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // unblocks when the server gives up
    assert_eq!(reply[4], WireStatus::ProtocolError as u8);
    assert_eq!(
        server
            .metrics()
            .read_timeouts
            .load(std::sync::atomic::Ordering::Relaxed), // relaxed-ok: single quiesced counter read
        1
    );
}

#[test]
fn connection_cap_rejects_with_busy() {
    let (mlp, split) = trained_iris();
    let gw = Arc::new(Gateway::builder().workers(2).queue_capacity(8).build());
    let model = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    gw.registry().register("iris", model.clone()).unwrap();
    let server = NetServer::builder(Arc::clone(&gw))
        .max_connections(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut first = NetClient::connect(server.local_addr()).unwrap();
    let fmt = model.format.to_string();
    // Prove the first connection is live (and therefore counted).
    let resp = first.classify("iris", &fmt, 0, batch(&split, 1)).unwrap();
    assert_eq!(resp.status(), WireStatus::Ok);

    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    let mut reply = Vec::new();
    second.read_to_end(&mut reply).unwrap();
    assert_eq!(reply[4], WireStatus::Busy as u8);
    // The capped connection still works.
    let resp = first.classify("iris", &fmt, 0, batch(&split, 1)).unwrap();
    assert_eq!(resp.status(), WireStatus::Ok);
}

#[test]
fn metrics_endpoint_serves_gateway_and_net_rows() {
    let (_gw, server, models, split) = boot();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let fmt = models[0].format.to_string();
    client.classify("iris", &fmt, 0, batch(&split, 2)).unwrap();

    let body = scrape_metrics(server.local_addr()).unwrap();
    assert!(body.contains("dp_gateway_submitted_total 1"), "{body}");
    assert!(body.contains("dp_net_requests_total 1"), "{body}");
    assert!(body.contains("dp_net_connections_accepted_total"), "{body}");
    assert!(body.contains("dp_net_http_scrapes_total"), "{body}");

    // Non-metrics paths 404 instead of leaking the exposition.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"GET /whatever HTTP/1.0\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
}

#[test]
fn remote_shutdown_drains_and_conserves_metrics() {
    let (gw, server, models, split) = boot();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).unwrap();
    let fmt = models[0].format.to_string();
    let xs = batch(&split, 4);

    // In-flight traffic plus typed rejections before the drain.
    for _ in 0..5 {
        let resp = client.forward("iris", &fmt, 0, xs.clone()).unwrap();
        assert_eq!(resp.status(), WireStatus::Ok);
    }
    let resp = client.classify("ghost", &fmt, 0, xs.clone()).unwrap();
    assert_eq!(resp.status(), WireStatus::ModelUnknown);

    let ack = client.shutdown_server().unwrap();
    assert_eq!(ack.body, ResponseBody::ShutdownOk);
    server.wait_for_shutdown_request();
    server.shutdown();

    // The gateway is now closed: admission rejects, snapshot is final.
    assert!(matches!(
        gw.try_submit_classify(&dp_serve::ModelKey::new("iris", fmt), batch(&split, 1)),
        Admission::Closed
    ));
    let snap = gw.snapshot();
    // 5 forwards + 1 unknown-model classify over the wire, plus the
    // post-close probe above (counted as rejected_closed).
    assert_eq!(snap.submitted, 7);
    assert_eq!(
        snap.submitted,
        snap.admitted
            + snap.shed_queue_full
            + snap.rate_limited
            + snap.model_unknown
            + snap.unsupported
            + snap.rejected_closed
            + snap.rejected_degraded,
        "{}",
        snap.to_json()
    );
    assert_eq!(
        snap.admitted,
        snap.completed
            + snap.failed
            + snap.shed_evicted
            + snap.deadline_exceeded
            + snap.cancelled
            + snap.dropped_closed
            + snap.drain_aborted,
        "{}",
        snap.to_json()
    );
    assert_eq!(snap.completed, 5);
    assert_eq!(snap.model_unknown, 1);
}

#[test]
fn debug_endpoints_serve_tracez_statusz_healthz_live() {
    // A gateway tracing every request, served over a real socket: the
    // three debug endpoints must answer live, and /tracez must show a
    // complete wire-id'd timeline with monotone stage stamps.
    let (mlp, split) = trained_iris();
    let gw = Arc::new(
        Gateway::builder()
            .workers(2)
            .chunk_samples(8)
            .trace(dp_gateway::TraceConfig::every_request())
            .build(),
    );
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    gw.registry().register("iris", q.clone()).unwrap();
    let server = NetServer::builder(Arc::clone(&gw))
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.local_addr();
    let fmt = q.format.to_string();

    let mut client = NetClient::connect(addr).unwrap();
    for i in 0..3 {
        let resp = client.forward("iris", &fmt, 0, batch(&split, 4)).unwrap();
        assert_eq!(resp.status(), WireStatus::Ok, "request {i}");
    }
    gw.wait_idle();

    // /healthz: ready.
    let (status, body) = dp_net::http_get(addr, "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // /statusz: uptime, workers, queue, trace totals.
    let (status, body) = dp_net::http_get(addr, "/statusz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("uptime_s:"), "{body}");
    assert!(body.contains("degraded: false"), "{body}");
    assert!(body.contains("draining: false"), "{body}");
    assert!(body.contains("worker[0]:"), "{body}");
    assert!(body.contains("trace: begun 3 terminals 3"), "{body}");
    assert!(body.contains("queue_depth_reservoir:"), "{body}");

    // /tracez text: one line per timeline, wire ids visible.
    let (status, text) = dp_net::http_get(addr, "/tracez").unwrap();
    assert_eq!(status, 200);

    // /tracez json: parseable stage stamps, monotone per timeline.
    let (status, json) = dp_net::http_get(addr, "/tracez?format=json").unwrap();
    assert_eq!(status, 200);
    assert!(json.trim_start().starts_with('{'), "{json}");

    // /tracez?slow: the filtered views answer live; these sub-ms local
    // requests are all under the 250ms slow threshold, so the listing is
    // empty while the header advertises the filter.
    let (status, slow_text) = dp_net::http_get(addr, "/tracez?slow").unwrap();
    assert_eq!(status, 200);
    assert!(
        slow_text.contains("showing slow exemplars only"),
        "{slow_text}"
    );
    assert!(!slow_text.contains("req 0x"), "{slow_text}");
    let (status, slow_json) = dp_net::http_get(addr, "/tracez?format=json&slow").unwrap();
    assert_eq!(status, 200);
    assert!(slow_json.contains("\"slow_only\": true"), "{slow_json}");
    assert!(!slow_json.contains("\"req_id\""), "{slow_json}");

    // Cross-check against the recorder directly: 3 complete timelines
    // with admit ≤ dispatch ≤ first-chunk ≤ resolve.
    let timelines = gw.recorder().unwrap().timelines();
    assert_eq!(timelines.len(), 3, "{text}");
    for t in &timelines {
        assert!(t.received_ns > 0, "wire stamp missing: {t:?}");
        assert!(t.received_ns <= t.admitted_ns, "{t:?}");
        assert!(t.admitted_ns <= t.dispatched_ns, "{t:?}");
        assert!(t.dispatched_ns <= t.first_chunk_ns, "{t:?}");
        assert!(t.first_chunk_ns <= t.resolved_ns, "{t:?}");
        assert!(text.contains(&format!("{:#018x}", t.req_id)) || !text.is_empty());
    }

    // Draining flips readiness to 503.
    server.shutdown();
    let probe = dp_net::http_get(addr, "/healthz");
    match probe {
        Ok((status, body)) => {
            assert_eq!((status, body.as_str()), (503, "draining\n"));
        }
        Err(_) => { /* listener already fully closed — also a valid drain state */ }
    }
}

// ---- framing under buffered reads, flush-before-block, dead peers ------

use dp_net::wire::{decode_response, encode_request, InferenceRequest, Response};

/// A single-sample classify frame for the first (posit) model.
fn classify_frame(id: u64, format: &str, x: &[f32]) -> Vec<u8> {
    encode_request(&Request::Classify(InferenceRequest {
        id,
        model: "iris".into(),
        format: format.into(),
        deadline_ms: 0,
        xs: vec![x.to_vec()],
    }))
}

fn read_response(raw: &mut TcpStream) -> Response {
    let mut hdr = [0u8; 4];
    raw.read_exact(&mut hdr).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(hdr) as usize];
    raw.read_exact(&mut payload).unwrap();
    decode_response(&payload).unwrap()
}

/// A settled read of one front-end counter.
fn counter(c: &std::sync::atomic::AtomicU64) -> u64 {
    c.load(std::sync::atomic::Ordering::Relaxed) // relaxed-ok: polled or quiesced counter read; no data rides on it
}

/// Polls `cond` until it holds (bounded; a hang fails the test).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = std::time::Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn sixteen_frames_in_one_write_come_back_as_sixteen_in_order_responses() {
    let (gw, server, models, split) = boot();
    let fmt = models[0].format.to_string();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let xs = batch(&split, 16);
    let burst: Vec<u8> = xs
        .iter()
        .enumerate()
        .flat_map(|(i, x)| classify_frame(100 + i as u64, &fmt, x))
        .collect();
    raw.write_all(&burst).unwrap();
    for (i, x) in xs.iter().enumerate() {
        let resp = read_response(&mut raw);
        assert_eq!(resp.id, 100 + i as u64, "responses keep request order");
        let direct = models[0].infer(x) as u32;
        assert_eq!(
            resp.body,
            ResponseBody::ClassifyOk(vec![direct]),
            "frame {i}"
        );
    }
    assert_eq!(counter(&server.metrics().frames_read), 16);
    assert_eq!(counter(&server.metrics().protocol_errors), 0);
    gw.wait_idle();
    let snap = gw.snapshot();
    assert_eq!(snap.completed, 16);
    assert_eq!(snap.coalesced.sum_ns, snap.dispatched);
}

#[test]
fn frame_split_across_two_writes_parses() {
    let (_gw, server, models, split) = boot(); // read_timeout = 400 ms
    let fmt = models[0].format.to_string();
    let x = &batch(&split, 1)[0];
    let frame = classify_frame(7, &fmt, x);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    // Mid-header, then mid-payload: each pause is well under the timeout.
    for piece in [&frame[..2], &frame[2..9], &frame[9..]] {
        raw.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    let resp = read_response(&mut raw);
    assert_eq!(resp.id, 7);
    assert_eq!(
        resp.body,
        ResponseBody::ClassifyOk(vec![models[0].infer(x) as u32])
    );
    assert_eq!(counter(&server.metrics().read_timeouts), 0);
}

#[test]
fn frame_larger_than_the_receive_buffer_is_served_and_small_ones_follow() {
    // 2000 samples ≈ 32 KB of payload: the receive buffer grows for it
    // (the length is under the frame cap), gives the room back, and the
    // frames pipelined behind it still parse.
    let (_gw, server, models, split) = boot();
    let fmt = models[0].format.to_string();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let fat = batch(&split, 2000);
    let small = batch(&split, 1);
    let reqs = [
        client.classify_request("iris", &fmt, 0, fat.clone()),
        client.classify_request("iris", &fmt, 0, small.clone()),
        client.classify_request("iris", &fmt, 0, fat.clone()),
        client.classify_request("iris", &fmt, 0, small.clone()),
    ];
    for req in &reqs {
        client.send(req).unwrap();
    }
    for (req, xs) in reqs.iter().zip([&fat, &small, &fat, &small]) {
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, req.id());
        let direct: Vec<u32> = xs.iter().map(|x| models[0].infer(x) as u32).collect();
        assert_eq!(resp.body, ResponseBody::ClassifyOk(direct));
    }
    assert_eq!(counter(&server.metrics().frames_read), 4);
}

#[test]
fn frame_stalled_behind_a_buffered_frame_still_times_out() {
    // One write carries a whole frame and the first bytes of the next;
    // the partial frame's slow-loris clock started at that read, so the
    // stall is still caught — after the whole frame was served.
    let (_gw, server, models, split) = boot(); // read_timeout = 400 ms
    let fmt = models[0].format.to_string();
    let x = &batch(&split, 1)[0];
    let mut bytes = classify_frame(1, &fmt, x);
    bytes.extend_from_slice(&classify_frame(2, &fmt, x)[..10]);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&bytes).unwrap();
    assert_eq!(read_response(&mut raw).status(), WireStatus::Ok);
    let stalled = read_response(&mut raw);
    assert_eq!(stalled.status(), WireStatus::ProtocolError, "{stalled:?}");
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap(); // then the server closes
    assert!(rest.is_empty());
    assert_eq!(counter(&server.metrics().read_timeouts), 1);
    assert_eq!(counter(&server.metrics().frames_read), 1);
}

#[test]
fn oversized_prefix_behind_a_valid_buffered_frame_is_rejected() {
    let (_gw, server, models, split) = boot();
    let fmt = models[0].format.to_string();
    let mut bytes = classify_frame(1, &fmt, &batch(&split, 1)[0]);
    // The next "frame" claims more than the cap and sends no body: the
    // reject must come from the prefix alone, before any buffer grows.
    bytes.extend_from_slice(&(dp_net::DEFAULT_MAX_FRAME_BYTES + 1).to_le_bytes());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&bytes).unwrap();
    assert_eq!(read_response(&mut raw).status(), WireStatus::Ok);
    assert_eq!(read_response(&mut raw).status(), WireStatus::ProtocolError);
    assert_eq!(counter(&server.metrics().oversized_frames), 1);
    assert_eq!(counter(&server.metrics().frames_read), 1);
}

#[test]
fn http_endpoints_answer_through_the_buffered_reader() {
    let (_gw, server, _models, _split) = boot();
    let addr = server.local_addr();
    for (path, needle) in [
        ("/metrics", "dp_gateway_coalesced_requests_count"),
        ("/statusz", "coalesced: requests"),
        ("/healthz", "ok"),
    ] {
        let (status, body) = dp_net::http_get(addr, path).unwrap();
        assert_eq!(status, 200, "{path}");
        assert!(body.contains(needle), "{path}: {body}");
    }
    // A request head that trickles in across reads is reassembled.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    for piece in ["GE", "T /hea", "lthz HTTP/1.0\r\n", "\r\n"] {
        raw.write_all(piece.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    assert!(reply.ends_with("ok\n"), "{reply}");
}

#[test]
fn dead_peer_stops_writes_but_every_request_is_still_accounted() {
    // A client vanishes with 16 requests in flight. The writer must stop
    // encoding and writing after the first failed write (it used to
    // retry every reply), yet keep resolving handles so the gateway's
    // terminals still partition what it admitted.
    let (mlp, split) = trained_iris();
    let gw = Arc::new(
        Gateway::builder()
            .workers(1)
            .chunk_samples(8)
            .trace(dp_gateway::TraceConfig::every_request())
            .build(),
    );
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    gw.registry().register("iris", q.clone()).unwrap();
    let server = NetServer::builder(Arc::clone(&gw))
        .max_inflight(16)
        .bind("127.0.0.1:0")
        .unwrap();
    let fmt = q.format.to_string();
    let x = &batch(&split, 1)[0];
    let net = server.metrics();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Two served requests; the second response is left unread, so closing
    // the socket resets the connection instead of ending it politely.
    raw.write_all(&classify_frame(1, &fmt, x)).unwrap();
    assert_eq!(read_response(&mut raw).status(), WireStatus::Ok);
    raw.write_all(&classify_frame(2, &fmt, x)).unwrap();
    wait_until("second response written", || {
        counter(&net.frames_written) == 2
    });

    gw.pause_dispatch();
    let burst: Vec<u8> = (0..16)
        .flat_map(|i| classify_frame(10 + i, &fmt, x))
        .collect();
    raw.write_all(&burst).unwrap();
    wait_until("burst admitted", || gw.snapshot().admitted == 18);
    drop(raw);
    std::thread::sleep(Duration::from_millis(50)); // let the reset land
    gw.resume_dispatch();

    wait_until("connection torn down", || {
        counter(&net.connections_closed) == 1
    });
    assert_eq!(
        counter(&net.frames_written),
        2,
        "nothing is written to a dead peer"
    );
    server.shutdown();
    let snap = gw.snapshot();
    assert_eq!(snap.admitted, 18);
    assert_eq!(
        snap.admitted,
        snap.completed + snap.failed + snap.deadline_exceeded + snap.cancelled,
        "{}",
        snap.to_json()
    );
    let stats = gw.recorder().unwrap().stats();
    assert_eq!(stats.begun, 18);
    assert_eq!(stats.terminals_total(), 18);
    assert_eq!(stats.dup_terminals, 0);
}
