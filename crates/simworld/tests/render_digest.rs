//! Render digest gate: the camera rasterizer's bytes, pinned.
//!
//! Every rendered byte is folded into an FNV-1a digest, per scenario and
//! sensor configuration, for a fixed closed-loop drive under fixed
//! controls: all three cameras, every capture. A hand-built scene adds
//! vehicle boxes that clip the left, right and bottom image edges. Three
//! more drive a curving road far from the origin: at (−3·10⁵, 7·10⁵) m,
//! where texture cells are negative; across x = 2⁵⁰ m, where some pixels
//! of a row have a doubled coordinate of 2⁵¹ or more and some do not; and
//! near 1.2·10¹⁵ m, where every ground pixel's does.
//!
//! The drive and clipping digests were computed by a rasterizer that
//! hashed both halves of every pixel's noise key on every frame, before
//! the frame-invariant half moved into a table. The far-road digests were
//! computed by the rasterizer that projected and shaded the ground one
//! pixel at a time, before the ground moved to row passes. Any
//! optimization of the render path must leave every one of them
//! unchanged. A deliberate change to the image model re-pins this table
//! and says why.
//!
//! Run it under release codegen too (`cargo test --release -p
//! diverseav-simworld --test render_digest`): campaigns run optimized, so
//! the bytes they see are the ones that matter.

use diverseav_simworld::{
    render_camera, render_camera_into, Controls, Image, Npc, NpcBehavior, Pose, RenderScene,
    Scenario, ScenarioKind, SensorConfig, SensorFrame, Track, Vec2, World,
};

/// Captures per drive.
const CAPTURES: usize = 24;
/// World ticks between captures (6 × 24 ticks ≈ 3.6 s at 40 Hz).
const STRIDE: usize = 6;
/// World seed of every drive.
const SEED: u64 = 0x5EED;

/// Folds bytes into a 64-bit FNV-1a digest.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds an image's shape and every byte.
fn fold_image(h: &mut u64, img: &Image) {
    fnv1a(h, &(img.width() as u64).to_le_bytes());
    fnv1a(h, &(img.height() as u64).to_le_bytes());
    fnv1a(h, img.data());
}

/// The sensor configurations under test: the default, two noise/texture
/// variants, and two resolutions (odd, and larger than the default).
fn configs() -> [(&'static str, SensorConfig); 5] {
    let d = SensorConfig::default();
    [
        ("default", d),
        ("n1.1t8", SensorConfig { pixel_noise: 1.1, texture_amp: 8.0, ..d }),
        ("n1.5t10", SensorConfig { pixel_noise: 1.5, texture_amp: 10.0, ..d }),
        ("37x23", SensorConfig { width: 37, height: 23, ..d }),
        ("160x120", SensorConfig { width: 160, height: 120, ..d }),
    ]
}

fn scenarios() -> [ScenarioKind; 6] {
    let [lsd, gc, fa] = ScenarioKind::safety_critical();
    [
        lsd,
        gc,
        fa,
        ScenarioKind::LongRoute(0),
        ScenarioKind::LongRoute(1),
        ScenarioKind::LongRoute(2),
    ]
}

/// Digest of every camera byte of a fixed drive through `kind`.
fn drive_digest(kind: ScenarioKind, cfg: SensorConfig) -> u64 {
    let mut world = World::new(Scenario::of_kind(kind), cfg, SEED);
    let mut frame = SensorFrame::empty();
    let mut h = FNV_OFFSET;
    for _ in 0..CAPTURES {
        world.sense_into(&mut frame);
        for img in &frame.cameras {
            fold_image(&mut h, img);
        }
        for _ in 0..STRIDE {
            world.step(Controls::clamped(0.5, 0.0, 0.0));
        }
    }
    h
}

/// Vehicles close enough that their boxes clip the image: one dead ahead
/// running off the bottom edge, one off the left edge, one off the right,
/// overlapping a mid-distance and a far one so draw order matters.
fn clipping_npcs() -> Vec<Npc> {
    let mut npcs = vec![
        Npc::new(60.0, 0.3, 0.0, NpcBehavior::Cruise),
        Npc::new(14.0, -1.0, 0.0, NpcBehavior::Cruise),
        Npc::new(3.0, 2.0, 0.0, NpcBehavior::Cruise),
        Npc::new(3.2, -2.0, 0.0, NpcBehavior::Cruise),
        Npc::new(2.2, 0.0, 0.0, NpcBehavior::Cruise),
    ];
    for (i, npc) in npcs.iter_mut().enumerate() {
        npc.shade = i as u8;
    }
    npcs
}

/// Digest of the clipping scene over several frame seeds and every camera.
fn clipping_digest(cfg: &SensorConfig) -> u64 {
    let track = Track::straight(200.0);
    let npcs = clipping_npcs();
    let mut h = FNV_OFFSET;
    let mut img = Image::new(0, 0);
    for frame_seed in 0..8u64 {
        let scene = RenderScene {
            track: &track,
            ego: Pose::new(Vec2::ZERO, 0.0),
            ego_s: 0.0,
            npcs: &npcs,
            frame_seed: frame_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        for cam in 0..3 {
            render_camera_into(cfg, &scene, cam, &mut img);
            fold_image(&mut h, &img);
        }
    }
    h
}

/// A road of `2 × 100` m starting at `origin` with heading `heading`,
/// bending left by 0.004 rad every 2 m.
fn curving_track(origin: Vec2, heading: f64) -> Track {
    let mut pts = vec![origin];
    let mut p = origin;
    for i in 0..100 {
        p += Vec2::from_heading(heading + 0.004 * i as f64) * 2.0;
        pts.push(p);
    }
    Track::from_points(pts)
}

/// Digest of a drive down a curving road at `origin`, one vehicle ahead in
/// each lane, over several frame seeds and ego positions and every camera.
fn far_digest(cfg: &SensorConfig, origin: Vec2, heading: f64) -> u64 {
    let track = curving_track(origin, heading);
    let npcs = [
        Npc::new(40.0, 0.0, 0.0, NpcBehavior::Cruise),
        Npc::new(70.0, 3.5, 0.0, NpcBehavior::Cruise).with_shade(2),
    ];
    let mut h = FNV_OFFSET;
    let mut img = Image::new(0, 0);
    for k in 0..8u64 {
        let ego_s = 3.7 * k as f64;
        let scene = RenderScene {
            track: &track,
            ego: track.pose_at(ego_s, 0.4),
            ego_s,
            npcs: &npcs,
            frame_seed: k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA4,
        };
        for cam in 0..3 {
            render_camera_into(cfg, &scene, cam, &mut img);
            fold_image(&mut h, &img);
        }
    }
    h
}

/// The far-from-origin roads: label, origin, heading.
fn far_roads() -> [(&'static str, Vec2, f64); 3] {
    let two50 = (1u64 << 50) as f64;
    [
        ("far", Vec2::new(-3.0e5, 7.0e5), 2.3),
        ("edge", Vec2::new(two50 - 60.0, -3.0e5), 0.1),
        ("huge", Vec2::new(1.2e15, -1.2e15), -0.7),
    ]
}

/// Every digest, one `label = value` line each.
fn digest_table() -> String {
    let mut out = String::new();
    for (name, cfg) in configs() {
        for kind in scenarios() {
            let d = drive_digest(kind, cfg);
            out += &format!("{}/{name} = {d:#018x}\n", kind.abbrev());
        }
        out += &format!("clip/{name} = {:#018x}\n", clipping_digest(&cfg));
        for (label, origin, heading) in far_roads() {
            out += &format!("{label}/{name} = {:#018x}\n", far_digest(&cfg, origin, heading));
        }
    }
    out
}

/// The digests of the reference rasterizer.
const PINNED: &str = "\
LSD/default = 0xdfdd073b0c81cbe8
GC/default = 0x1e62af546dec9470
FA/default = 0x3348c5d0930edc80
R00/default = 0xca68c983c9705b6c
R01/default = 0x0d2014651250f6d9
R02/default = 0x328becfaa2144348
clip/default = 0x7dc4305b19d6ec19
far/default = 0x09106fbfbdc22ae8
edge/default = 0x13948146615a5493
huge/default = 0x552daadfa474c7e7
LSD/n1.1t8 = 0x5fde5cc78dc140e7
GC/n1.1t8 = 0xa6ff32b7b925b2f2
FA/n1.1t8 = 0x478ecc529b85b0de
R00/n1.1t8 = 0xa7e6bb91530538d8
R01/n1.1t8 = 0x41438042f9753cde
R02/n1.1t8 = 0x2c358a8ec0e9423a
clip/n1.1t8 = 0xbdff8bfef623ea90
far/n1.1t8 = 0xa706e5cc93c5595d
edge/n1.1t8 = 0x73b254c8c09b5daf
huge/n1.1t8 = 0xe572048cd5094eae
LSD/n1.5t10 = 0x52fdf808906a9685
GC/n1.5t10 = 0x23e11ed2f62d827f
FA/n1.5t10 = 0xa87abf31271fff6d
R00/n1.5t10 = 0xdd071e4372a51936
R01/n1.5t10 = 0xfe820dc83fec4b9a
R02/n1.5t10 = 0xc6dd1286cb95fd5b
clip/n1.5t10 = 0x6e4afbdb0b1a2dcb
far/n1.5t10 = 0x7651cb5ba1e7e63b
edge/n1.5t10 = 0x9e09bb968ed38bec
huge/n1.5t10 = 0x43a68b11fa6f24b5
LSD/37x23 = 0x1286545e6e8c3967
GC/37x23 = 0xa344309e3c249f89
FA/37x23 = 0xd3f9142ebf5b9de3
R00/37x23 = 0xa1eca0b0614a3db1
R01/37x23 = 0x882fddfe932e8602
R02/37x23 = 0x34d20e2eef708c5b
clip/37x23 = 0xd25c6ebbd03d3463
far/37x23 = 0x3d9158eb47e9aafa
edge/37x23 = 0xd6318597abb2d998
huge/37x23 = 0x557ae697ab78ee93
LSD/160x120 = 0x453c1ea9cc07bf55
GC/160x120 = 0x584bae19dd32cc67
FA/160x120 = 0x995a4dc31392892e
R00/160x120 = 0xe4e8083cddde63ec
R01/160x120 = 0x2c07a0bdaf12bbf7
R02/160x120 = 0xed7249e3f04bde0c
clip/160x120 = 0xee2e338306e16b94
far/160x120 = 0x731780a5e7452967
edge/160x120 = 0x67bed6f78f341007
huge/160x120 = 0x1ab2d3139b76143c
";

#[test]
fn rendered_bytes_match_the_pinned_digests() {
    let table = digest_table();
    assert_eq!(table, PINNED, "render digests moved; computed table:\n{table}");
}

/// The clipping scene really clips: vehicle-blue pixels reach the left,
/// right and bottom edges of the default center camera.
#[test]
fn clipping_scene_reaches_three_image_edges() {
    let cfg = SensorConfig::default();
    let track = Track::straight(200.0);
    let npcs = clipping_npcs();
    let scene = RenderScene {
        track: &track,
        ego: Pose::new(Vec2::ZERO, 0.0),
        ego_s: 0.0,
        npcs: &npcs,
        frame_seed: 1,
    };
    let img = render_camera(&cfg, &scene, 1);
    let (w, h) = (img.width(), img.height());
    let blue = |x: usize, y: usize| {
        let [r, g, b] = img.pixel(x, y);
        b as i32 - (r as i32 + g as i32) / 2 > 60
    };
    assert!((0..h).any(|y| blue(0, y)), "no box clips the left edge");
    assert!((0..h).any(|y| blue(w - 1, y)), "no box clips the right edge");
    assert!((0..w).any(|x| blue(x, h - 1)), "no box clips the bottom edge");
}

/// Changing resolution on one thread and changing back renders the same
/// bytes: state sized to the image, such as the rasterizer's noise-key
/// table, must follow the resolution, not keep the first one.
#[test]
fn resolution_round_trip_on_one_thread_is_stable() {
    let d = SensorConfig::default();
    let small = SensorConfig { width: 37, height: 23, ..d };
    let track = Track::straight(200.0);
    let npcs = clipping_npcs();
    let scene = RenderScene {
        track: &track,
        ego: Pose::new(Vec2::ZERO, 0.0),
        ego_s: 0.0,
        npcs: &npcs,
        frame_seed: 42,
    };
    let first = render_camera(&d, &scene, 1);
    let mid = render_camera(&small, &scene, 1);
    let third = render_camera(&d, &scene, 1);
    assert_eq!((mid.width(), mid.height()), (37, 23));
    assert_eq!(first, third);
}
