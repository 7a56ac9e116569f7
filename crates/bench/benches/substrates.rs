//! Criterion micro-benchmarks of the substrate hot paths: broker
//! produce/fetch, wire codec, MAC airtime, HTB shaping, DSRC send, geo math.

use bytes::Bytes;
use cad3_net::{DsrcChannel, HtbShaper, MacModel, Mcs};
use cad3_sim::SimRng;
use cad3_stream::{Broker, Consumer, OffsetReset};
use cad3_types::{
    DayOfWeek, GeoPoint, HourOfDay, Label, RoadId, RoadType, SimDuration, SimTime, TripId,
    VehicleId, VehicleStatus, WireDecode, WireEncode,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn status() -> VehicleStatus {
    VehicleStatus {
        vehicle: VehicleId(42),
        trip: TripId(7),
        road: RoadId(1001),
        speed_kmh: 123.4,
        accel_mps2: -1.5,
        hour: HourOfDay::new(17).expect("valid hour"),
        day: DayOfWeek::Friday,
        road_type: RoadType::MotorwayLink,
        road_speed_kmh: 95.0,
        position: GeoPoint::new(114.05, 22.54),
        sent_at: SimTime::from_millis(1234),
        seq: 99,
        truth: Label::Abnormal,
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(200));
    let s = status();
    group.bench_function("status_encode", |b| {
        b.iter(|| black_box(s.encode_to_bytes()));
    });
    let encoded = s.encode_to_bytes();
    group.bench_function("status_decode", |b| {
        b.iter(|| {
            let mut buf = encoded.clone();
            black_box(VehicleStatus::decode(&mut buf).expect("valid buffer"))
        });
    });
    group.finish();
}

fn bench_broker(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    group.throughput(Throughput::Elements(1));
    let broker = Arc::new(Broker::new("bench"));
    broker.create_topic("IN-DATA", 3).expect("fresh broker");
    let payload = status().encode_to_bytes();
    group.bench_function("produce", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = Bytes::copy_from_slice(&i.to_be_bytes());
            broker.produce("IN-DATA", None, Some(key), payload.clone(), i).expect("topic exists")
        });
    });

    // Fetch a pre-filled log through the consumer path.
    let broker2 = Arc::new(Broker::new("bench2"));
    broker2.create_topic("IN-DATA", 3).expect("fresh broker");
    for i in 0..10_000u64 {
        let key = Bytes::copy_from_slice(&i.to_be_bytes());
        broker2.produce("IN-DATA", None, Some(key), payload.clone(), i).expect("topic exists");
    }
    group.throughput(Throughput::Elements(128));
    group.bench_function("poll_128", |b| {
        let mut consumer = Consumer::new(Arc::clone(&broker2), "g", OffsetReset::Earliest);
        consumer.subscribe(&["IN-DATA"]).expect("topic exists");
        b.iter(|| {
            let got = consumer.poll(128).expect("poll succeeds");
            if got.is_empty() {
                consumer.seek_to_beginning();
            }
            black_box(got.len())
        });
    });
    group.finish();
}

fn bench_net(c: &mut Criterion) {
    let mut group = c.benchmark_group("net");
    let mac = MacModel::default();
    group.bench_function("mac_airtime", |b| {
        b.iter(|| black_box(mac.frame_airtime(Mcs::MCS3, black_box(200))));
    });
    group.bench_function("mac_eq5_access_time", |b| {
        b.iter(|| black_box(mac.medium_access_time(black_box(256), Mcs::MCS3, 200)));
    });
    group.bench_function("htb_depart", |b| {
        let mut htb = HtbShaper::paper_default();
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            black_box(htb.depart(SimTime::from_millis(t), 200))
        });
    });
    // The benchmark's ingest stream: 256 senders, 128 of them a 50 ms step,
    // 244 B on air at MCS8.
    group.bench_function("dsrc_send", |b| {
        let mut channel = DsrcChannel::new(
            MacModel::default(),
            Mcs::MCS8,
            HtbShaper::paper_default(),
            256,
            SimDuration::from_millis(100),
        );
        let mut rng = SimRng::seed_from(42);
        let mut i = 0u64;
        b.iter(|| {
            let now = SimTime::from_millis(i / 128 * 50);
            i += 1;
            black_box(channel.send(&mut rng, i % 256, now, 244))
        });
    });
    group.finish();
}

fn bench_window_and_channels(c: &mut Criterion) {
    let mut group = c.benchmark_group("window");
    group.bench_function("sliding_window_record", |b| {
        let mut w = cad3_engine::SlidingWindow::new(300_000_000_000, 10_000_000_000);
        let mut t = 0u64;
        b.iter(|| {
            t += 100_000_000;
            w.record(t, 100.0);
            black_box(w.stats_at(t))
        });
    });
    group.finish();

    let mut group = c.benchmark_group("channels");
    let net = cad3_data::RoadNetwork::generate(&cad3_data::RoadNetworkConfig::scaled(3, 0.02));
    let plan = cad3_data::DeploymentPlan::plan(&net, 1000.0);
    let positions: Vec<cad3_types::GeoPoint> = plan.sites.iter().map(|s| s.position).collect();
    group.bench_function("assign_channels", |b| {
        b.iter(|| {
            black_box(cad3_net::assign_channels(
                black_box(&positions),
                300.0,
                cad3_net::DSRC_SERVICE_CHANNELS,
            ))
        });
    });
    group.finish();
}

fn bench_geo(c: &mut Criterion) {
    let mut group = c.benchmark_group("geo");
    let a = GeoPoint::new(114.05, 22.54);
    let b2 = GeoPoint::new(114.15, 22.64);
    group.bench_function("haversine", |b| {
        b.iter(|| black_box(a.haversine_m(&b2)));
    });
    group.bench_function("destination", |b| {
        b.iter(|| black_box(a.destination(black_box(45.0), black_box(1000.0))));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_broker,
    bench_net,
    bench_window_and_channels,
    bench_geo
);
criterion_main!(benches);
