//! Sensor models: a software camera rasterizer, GPS, IMU, speedometer, and
//! LiDAR.
//!
//! The rasterizer is the heart of the reproduction's *temporal data
//! diversity* property (§V-A of the paper): consecutive frames must be
//! semantically near-identical (objects shift by a few pixels) while
//! differing substantially at the bit level (the paper measures a median of
//! 5–9 of 24 bits per pixel between consecutive frames). Two mechanisms
//! provide this here, mirroring reality:
//!
//! 1. **World-anchored texture** — road, grass, and vehicle surfaces carry
//!    a deterministic texture hashed from world coordinates, so ego motion
//!    shifts the pattern across pixels exactly as real texture parallax
//!    does.
//! 2. **Per-frame sensor noise** — every pixel channel receives a small
//!    deterministic pseudo-noise term keyed by a per-frame seed, standing
//!    in for shot/read noise of a real imager.
//!
//! Only the frame key changes from frame to frame. The half of the noise
//! hash that depends on the pixel alone is computed once per resolution
//! and kept in a table (see `KeyTable`), so the per-frame cost is one hash
//! per channel byte.
//!
//! Each ground row is drawn in stride-1 passes over row buffers (see
//! `GroundRow`) rather than one branchy loop per pixel: the flat-ground
//! projection, an exact float→cell-index conversion, the texture hash of
//! every pixel's cell, the shading, and one fused noise-add-and-quantize
//! pass shared with the sky rows and the vehicle boxes. The hash passes
//! keep no branch, so they vectorize; the shading, which branches on the
//! surface, only adds the texture row. Every pass performs the same
//! IEEE-754 operations in the same order as a per-pixel loop would, so the
//! bytes do not depend on how LLVM vectorizes them.
//!
//! A hash becomes an amplitude in `[-1, 1]` through its top 53 bits
//! scaled by one exact power of two (see `unit`).

use crate::geometry::{Pose, Vec2};
use crate::npc::Npc;
use crate::track::{Track, LANE_WIDTH};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

/// The frame-invariant half of the pixel-noise hash for one resolution.
///
/// A pixel channel's sensor noise is `splitmix64(noise_key ^
/// splitmix64(k))` with the frame key `noise_key` and the pixel key
/// `k = (px * 4 + ch) * 4096 + py`. The inner `splitmix64(k)` never
/// changes between frames, so `keys` holds it for every byte of a
/// `w × h` image, laid out like the image bytes (`(py * w + px) * 3 +
/// ch`): a frame costs one `splitmix64` per channel byte.
/// The key's stride of 4 per pixel leaves room for a fourth channel that
/// is never drawn, so the table has no slot for it.
struct KeyTable {
    dims: (usize, usize),
    keys: Vec<u64>,
}

impl KeyTable {
    fn build(w: usize, h: usize) -> KeyTable {
        let mut keys = Vec::with_capacity(3 * w * h);
        for py in 0..h {
            for px in 0..w {
                for ch in 0..3 {
                    keys.push(splitmix64(((px * 4 + ch) * 4096 + py) as u64));
                }
            }
        }
        KeyTable { dims: (w, h), keys }
    }
}

/// The key table most recently built on any thread. Threads rendering at
/// the same resolution share it, so a campaign's worker threads hold one
/// copy between them instead of one each (peak memory would otherwise
/// grow with the worker count), and a new worker does not rebuild it.
static LAST_KEYS: Mutex<Option<Arc<KeyTable>>> = Mutex::new(None);

/// Per-thread state for [`render_camera_into`]: a handle on the key table
/// of the thread's current resolution, taken or built only when the
/// resolution changes, two channel row buffers (`3 * w`) for the noise and
/// the unquantized, noise-free channel values, and the per-pixel buffers
/// of one ground row. The noise, geometry, cell-index and quantize passes
/// over them are stride-1 loops the autovectorizer runs wide; at 64 px
/// the buffers take about 6 KB.
struct RenderScratch {
    keys: Option<Arc<KeyTable>>,
    noise: Vec<f64>,
    vals: Vec<f64>,
    ground: GroundRow,
}

impl RenderScratch {
    /// The key table and row buffers for a `w × h` image.
    fn prepare(&mut self, w: usize, h: usize) -> (&[u64], &mut [f64], &mut [f64], &mut GroundRow) {
        let table = match self.keys.take() {
            Some(t) if t.dims == (w, h) => t,
            _ => shared_keys(w, h),
        };
        let keys = &self.keys.insert(table).keys;
        self.noise.resize(3 * w, 0.0);
        self.vals.resize(3 * w, 0.0);
        self.ground.resize(w);
        (keys, &mut self.noise[..3 * w], &mut self.vals[..3 * w], &mut self.ground)
    }
}

/// The per-pixel quantities of one ground row, one buffer each: track
/// coordinates (`lat`, `along`), the floored doubled world coordinates
/// (the 0.5 m texture cell, as f64), the cells as hash words, and the
/// cells' texture amplitudes.
struct GroundRow {
    lat: Vec<f64>,
    along: Vec<f64>,
    floor_x: Vec<f64>,
    floor_y: Vec<f64>,
    cell_x: Vec<u64>,
    cell_y: Vec<u64>,
    tex: Vec<f64>,
}

impl GroundRow {
    const fn new() -> GroundRow {
        GroundRow {
            lat: Vec::new(),
            along: Vec::new(),
            floor_x: Vec::new(),
            floor_y: Vec::new(),
            cell_x: Vec::new(),
            cell_y: Vec::new(),
            tex: Vec::new(),
        }
    }

    fn resize(&mut self, w: usize) {
        let GroundRow { lat, along, floor_x, floor_y, tex, .. } = self;
        for buf in [lat, along, floor_x, floor_y, tex] {
            buf.resize(w, 0.0);
        }
        self.cell_x.resize(w, 0);
        self.cell_y.resize(w, 0);
    }
}

/// The key table for `w × h`: the shared one if it has that resolution,
/// else a new one, which becomes the shared one.
fn shared_keys(w: usize, h: usize) -> Arc<KeyTable> {
    // Every update stores a complete table, so a poisoned lock still
    // guards a valid value.
    let mut last = LAST_KEYS.lock().unwrap_or_else(PoisonError::into_inner);
    match &*last {
        Some(t) if t.dims == (w, h) => Arc::clone(t),
        _ => Arc::clone(last.insert(Arc::new(KeyTable::build(w, h)))),
    }
}

thread_local! {
    /// Scratch reused across renders and scans on this thread: the
    /// rasterizer's key-table handle and row buffers, and the flattened
    /// NPC footprint segments of one LiDAR scan. All of it is kept between
    /// frames, so the campaign hot path stays allocation-free in steady
    /// state.
    static RENDER_SCRATCH: RefCell<RenderScratch> = const {
        RefCell::new(RenderScratch {
            keys: None,
            noise: Vec::new(),
            vals: Vec::new(),
            ground: GroundRow::new(),
        })
    };
    static SEGMENTS: RefCell<Vec<(Vec2, Vec2)>> = const { RefCell::new(Vec::new()) };
}

/// An 8-bit RGB image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    w: usize,
    h: usize,
    data: Vec<u8>,
}

impl Image {
    /// Create a black image.
    pub fn new(w: usize, h: usize) -> Self {
        Image { w, h, data: vec![0; w * h * 3] }
    }

    /// Resize to `w × h` and blacken, reusing the existing allocation.
    ///
    /// After the first frame at a given resolution this performs no heap
    /// allocation — the buffer-pool primitive behind
    /// [`render_camera_into`].
    pub fn reset(&mut self, w: usize, h: usize) {
        self.w = w;
        self.h = h;
        self.data.clear();
        self.data.resize(w * h * 3, 0);
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Raw interleaved RGB bytes (row-major).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw interleaved RGB bytes (row-major) — the in-place
    /// corruption surface used by the sensor-fault injector.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Read pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        let i = (y * self.w + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Write pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        let i = (y * self.w + x) * 3;
        self.data[i] = rgb[0];
        self.data[i + 1] = rgb[1];
        self.data[i + 2] = rgb[2];
    }
}

/// Inertial measurements for one frame.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct ImuReading {
    /// Longitudinal acceleration (m/s²), noisy.
    pub accel: f32,
    /// Yaw rate (rad/s), noisy.
    pub yaw_rate: f32,
}

/// One time step's bundle of sensor data, posted at the sensor frequency.
#[derive(Clone, Debug, PartialEq)]
pub struct SensorFrame {
    /// Simulation time (s).
    pub t: f64,
    /// Step index since scenario start.
    pub step: u64,
    /// Camera images: `[left, center, right]`.
    pub cameras: Vec<Image>,
    /// GPS fix (world x, y), noisy (f32 like a real receiver payload).
    pub gps: [f32; 2],
    /// IMU readings.
    pub imu: ImuReading,
    /// Speedometer (m/s), noisy.
    pub speed: f32,
    /// Optional LiDAR ranges (m), one per azimuth bin.
    pub lidar: Option<Vec<f32>>,
}

impl SensorFrame {
    /// An empty frame suitable as a reusable buffer for
    /// [`World::sense_into`](crate::World::sense_into); its vectors are
    /// (re)filled in place on every capture.
    pub fn empty() -> Self {
        SensorFrame {
            t: 0.0,
            step: 0,
            cameras: Vec::new(),
            gps: [0.0; 2],
            imu: ImuReading::default(),
            speed: 0.0,
            lidar: None,
        }
    }
}

/// Which of the three camera slots `[left, center, right]` a capture
/// renders (see [`World::capture_into`](crate::World::capture_into)).
///
/// A consumer declares the cameras it reads; the capture renders their
/// union and leaves every other slot as an empty 0×0 [`Image`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CameraSet(u8);

impl CameraSet {
    /// No camera: scalars (and LiDAR, when enabled) only.
    pub const NONE: CameraSet = CameraSet(0b000);
    /// The center camera, slot 1 — what the agent's perception reads.
    pub const CENTER: CameraSet = CameraSet(0b010);
    /// All three cameras: the full sensor suite.
    pub const ALL: CameraSet = CameraSet(0b111);

    /// The cameras in either set.
    pub const fn union(self, other: CameraSet) -> CameraSet {
        CameraSet(self.0 | other.0)
    }

    /// Whether camera slot `cam` is in the set.
    pub const fn contains(self, cam: usize) -> bool {
        cam < 3 && self.0 & (1 << cam) != 0
    }
}

/// Sensor-suite configuration.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SensorConfig {
    /// Camera image width (px).
    pub width: usize,
    /// Camera image height (px).
    pub height: usize,
    /// Horizontal field of view (degrees).
    pub hfov_deg: f64,
    /// Camera mount height above ground (m).
    pub cam_height: f64,
    /// Yaw offsets of the three cameras (radians): left, center, right.
    pub cam_yaws: [f64; 3],
    /// Std-dev of per-pixel per-channel sensor noise (8-bit LSBs).
    pub pixel_noise: f64,
    /// World-texture amplitude (8-bit LSBs).
    pub texture_amp: f64,
    /// GPS noise std-dev (m).
    pub gps_noise: f64,
    /// Speedometer noise std-dev (m/s).
    pub speed_noise: f64,
    /// IMU noise std-dev (m/s² and rad/s).
    pub imu_noise: f64,
    /// Whether to produce LiDAR scans.
    pub enable_lidar: bool,
    /// Number of LiDAR azimuth bins.
    pub lidar_rays: usize,
    /// Maximum LiDAR range (m).
    pub lidar_range: f64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            width: 64,
            height: 48,
            hfov_deg: 70.0,
            cam_height: 1.5,
            cam_yaws: [0.785, 0.0, -0.785],
            pixel_noise: 1.3,
            texture_amp: 9.0,
            gps_noise: 0.15,
            speed_noise: 0.05,
            imu_noise: 0.02,
            enable_lidar: false,
            lidar_rays: 180,
            lidar_range: 80.0,
        }
    }
}

/// Everything the rasterizer needs to draw one frame.
#[derive(Clone, Debug)]
pub struct RenderScene<'a> {
    /// The route the road follows.
    pub track: &'a Track,
    /// Ego pose (camera platform).
    pub ego: Pose,
    /// Ego arclength along the track (precomputed by the world).
    pub ego_s: f64,
    /// Other vehicles.
    pub npcs: &'a [Npc],
    /// Per-frame noise seed.
    pub frame_seed: u64,
}

/// SplitMix64 — the one cheap deterministic hash of the workspace: texture
/// and pixel noise here, sensor-fault realizations, the injection plan and
/// the shard partition.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 2⁻⁵², exactly.
const TWO_POW_MINUS_52: f64 = 1.0 / (1u64 << 52) as f64;

/// Map a hash to a signed amplitude in `[-1, 1]` (its top 53 bits, exact).
///
/// The top 53 bits convert to `f64` exactly, and scaling by a power of two
/// is exact, so `x · 2⁻⁵²` is the same double as `x / 2⁵³ · 2`: one
/// multiply instead of a divide and a multiply.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * TWO_POW_MINUS_52 - 1.0
}

/// Hash two words into a signed amplitude in `[-1, 1]`.
#[inline]
pub fn hash_amp(a: u64, b: u64) -> f64 {
    unit(splitmix64(a ^ splitmix64(b)))
}

/// Fill `out` with the sensor noise of the frame key `noise_key` at the
/// pixel keys `keys` (a slice of a `KeyTable`).
#[inline]
fn fill_noise(out: &mut [f64], keys: &[u64], noise_key: u64, amp: f64) {
    for (n, &k) in out.iter_mut().zip(keys) {
        *n = unit(splitmix64(noise_key ^ k)) * amp;
    }
}

/// 1.5 · 2⁵²: adding it to an integer-valued `f` with `|f| < 2⁵¹` lands in
/// `[2⁵², 2⁵³)`, where the spacing of doubles is exactly 1, so the sum is
/// exact and its bit pattern is `MAGIC.to_bits() + f`.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// Quantize a channel value to a byte: round half away from zero, clamp to
/// `[0, 255]`.
///
/// Bit-equal to `v.round().clamp(0.0, 255.0) as u8` for every input
/// (including ties, NaN, and infinities) but built from operations LLVM
/// vectorizes, which `f64::round` and the saturating float→int cast are
/// not. Three steps, each exact:
///
/// 1. `r = floor(v + 0.5)` equals `v.round()` for `v ≥ 0` except when the
///    add rounds up across an integer boundary (`v` within one ulp below
///    `k + 0.5`, e.g. `0.49999999999999994`); then `r - 0.5 > v` detects
///    the overshoot and `r - 1` restores it. The probe must not be
///    `r - v > 0.5`: that difference itself rounds down to exactly `0.5`
///    in the overshoot case, while `r - 0.5` is exact for integer-valued
///    `r` below 2⁵² (and above that the off-by-one from its rounding is
///    absorbed by the same comparison). An exact tie keeps `r` — round
///    half *away*. For `v < 0` both forms land ≤ 0 and clamp to 0 either
///    way.
/// 2. `max(0)`/`min(255)` clamp; `NaN.max(0.0)` is `0.0`, matching the
///    `NaN → 0` of the saturating cast.
/// 3. The result is integer-valued in `[0, 255]`, so adding [`MAGIC`]
///    places it exactly in the low mantissa bits and the low byte of the
///    bit pattern *is* the answer.
#[inline]
fn quantize(v: f64) -> u8 {
    let r = (v + 0.5).floor();
    let r = if r - 0.5 > v { r - 1.0 } else { r };
    // Not `clamp`: `NaN.max(0.0)` is 0.0 (step 2 above), `NaN.clamp` is NaN.
    #[allow(clippy::manual_clamp)]
    let r = r.max(0.0).min(255.0);
    ((r + MAGIC).to_bits() & 0xFF) as u8
}

/// Quantize `vals[i] + noise[i]` into `out[i]`: the last pass of every
/// drawn row, sky, ground and vehicle box alike.
#[inline]
fn add_noise_quantize(out: &mut [u8], vals: &[f64], noise: &[f64]) {
    for ((o, &v), &n) in out.iter_mut().zip(vals).zip(noise) {
        *o = quantize(v + n);
    }
}

/// Convert floored values to texture-cell hash words: `out[i] = floors[i]
/// as i64 as u64`, bit-equal to the saturating cast for every input.
///
/// When every value of the row has `|f| < 2⁵¹` (false for NaN and ±∞) the
/// conversion is the exact magic-number subtraction, which LLVM
/// vectorizes; the saturating cast, with its NaN and range checks, keeps a
/// loop scalar. Integer-valued `f` in that range, `-0.0` included, gives
/// `(f + MAGIC).to_bits() - MAGIC.to_bits() = f`. Any other row takes the
/// saturating cast itself.
fn cell_words(floors: &[f64], out: &mut [u64]) {
    const LIMIT: f64 = (1u64 << 51) as f64;
    // `fold`, not `all`: a short-circuit would keep the test scalar.
    if floors.iter().fold(true, |ok, &f| ok & (f.abs() < LIMIT)) {
        let bias = MAGIC.to_bits() as i64;
        for (o, &f) in out.iter_mut().zip(floors) {
            *o = ((f + MAGIC).to_bits() as i64 - bias) as u64;
        }
    } else {
        for (o, &f) in out.iter_mut().zip(floors) {
            *o = f as i64 as u64;
        }
    }
}

/// Render one camera of the scene.
///
/// Deterministic given the scene (including `frame_seed`); the returned
/// image is the bit-level-diverse, semantically consistent input stream the
/// DiverseAV distributor splits between agents.
pub fn render_camera(cfg: &SensorConfig, scene: &RenderScene<'_>, cam: usize) -> Image {
    let mut img = Image::new(0, 0);
    render_camera_into(cfg, scene, cam, &mut img);
    img
}

/// [`render_camera`] into a caller-owned image, reusing its allocation.
///
/// Produces bit-identical pixels to [`render_camera`]; in steady state
/// (same resolution every frame) it performs no heap allocation, which
/// is what makes the campaign hot path allocation-free under the
/// `SimLoop` frame-buffer pool.
pub fn render_camera_into(
    cfg: &SensorConfig,
    scene: &RenderScene<'_>,
    cam: usize,
    img: &mut Image,
) {
    let w = cfg.width;
    let h = cfg.height;
    img.reset(w, h);
    let fx = (w as f64 / 2.0) / (cfg.hfov_deg.to_radians() / 2.0).tan();
    let fy = fx;
    let cx = w as f64 / 2.0;
    let cy = h as f64 / 2.0;

    let cam_yaw = scene.ego.heading + cfg.cam_yaws[cam];
    let fwd = Vec2::from_heading(cam_yaw);
    let left = fwd.perp();
    let cam_pos = scene.ego.pos;
    let noise_key = scene.frame_seed ^ ((cam as u64) << 56);
    let noise_amp = cfg.pixel_noise * 2.0;

    RENDER_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (keys, noise_row, vals_row, ground) = scratch.prepare(w, h);
        let GroundRow { lat, along, floor_x, floor_y, cell_x, cell_y, tex } = ground;
        let (lat, along) = (&mut lat[..w], &mut along[..w]);
        let (floor_x, floor_y) = (&mut floor_x[..w], &mut floor_y[..w]);
        let (cell_x, cell_y, tex) = (&mut cell_x[..w], &mut cell_y[..w], &mut tex[..w]);

        // --- ground & sky ---
        for py in 0..h {
            fill_noise(noise_row, &keys[py * w * 3..][..w * 3], noise_key, noise_amp);
            let row = &mut img.data[py * w * 3..][..w * 3];
            let yf = py as f64 + 0.5;
            if yf <= cy + 0.5 {
                // Sky: vertical gradient, slightly blue-gray.
                let t = yf / cy;
                let base = [120.0 + 50.0 * t, 135.0 + 40.0 * t, 150.0 + 30.0 * t];
                for v3 in vals_row.chunks_exact_mut(3) {
                    v3.copy_from_slice(&base);
                }
                add_noise_quantize(row, vals_row, noise_row);
                continue;
            }
            // Ground row: view distance from the flat-ground projection.
            let d = cfg.cam_height * fy / (yf - cy);
            // Local road frame at the row's approximate arclength. Using the
            // forward component of the view ray keeps side cameras roughly
            // consistent.
            let row_s = scene.ego_s + d * cfg.cam_yaws[cam].cos();
            let c = scene.track.pos_at(row_s.max(0.0));
            let tdir = scene.track.dir_at(row_s.max(0.0));
            let nrm = tdir.perp();
            // Row invariants: every pixel of the row shares the same view
            // depth, so the forward offset, pixel footprint, and marking
            // half-width hoist out of the pixel loops.
            let row_base = cam_pos + fwd * d;
            let ground_px_size = d / fx; // meters per pixel at this depth
            let mark_halfwidth = (0.09f64).max(ground_px_size * 0.5);

            // Pass 1, geometry: each pixel's world point, its track
            // coordinates, and its 0.5 m texture cell, floored but still
            // f64. The operations are those of `Vec2` arithmetic, spelled
            // out per component so no cast breaks the vector loop.
            for px in 0..w {
                let l = -((px as f64 + 0.5) - cx) * d / fx;
                let (wx, wy) = (row_base.x + left.x * l, row_base.y + left.y * l);
                let (rx, ry) = (wx - c.x, wy - c.y);
                lat[px] = nrm.x * rx + nrm.y * ry;
                along[px] = row_s + (tdir.x * rx + tdir.y * ry);
                floor_x[px] = (wx * 2.0).floor();
                floor_y[px] = (wy * 2.0).floor();
            }
            // Pass 2: the cells as hash words.
            cell_words(floor_x, cell_x);
            cell_words(floor_y, cell_y);
            // Pass 3: the world-anchored texture of every pixel's cell.
            // Hashing every pixel's cell costs less than caching runs of
            // one cell: the cache's data-dependent branch mispredicts.
            for ((t, &ix), &iy) in tex.iter_mut().zip(cell_x.iter()).zip(cell_y.iter()) {
                *t = hash_amp(ix, iy) * cfg.texture_amp;
            }
            // Pass 4, shade: surface colour plus texture.
            let track = lat.iter().zip(along.iter()).zip(tex.iter());
            for (v3, ((&lat, &along), &tex)) in vals_row.chunks_exact_mut(3).zip(track) {
                let on_road = (-LANE_WIDTH / 2.0 - 0.3..=1.5 * LANE_WIDTH + 0.3).contains(&lat);
                let base: [f64; 3] = if marking_at(lat, along, mark_halfwidth) {
                    [205.0, 205.0, 198.0]
                } else if on_road {
                    [56.0, 56.0, 59.0]
                } else {
                    [76.0, 94.0, 52.0]
                };
                v3[0] = base[0] + tex;
                v3[1] = base[1] + tex;
                v3[2] = base[2] + tex;
            }
            // Pass 5: `(base + tex) + noise`, quantized.
            add_noise_quantize(row, vals_row, noise_row);
        }

        // --- vehicles, far to near ---
        // Allocation-free draw-order selection: repeatedly pick the deepest
        // undrawn NPC (ties broken by original index), which reproduces the
        // order of a stable descending sort without a scratch vector. Scenes
        // beyond the bitmask width fall back to a sorted index list.
        let n_npcs = scene.npcs.len();
        let depth = |i: usize| {
            let rel = scene.npcs[i].pose(scene.track).pos - cam_pos;
            fwd.dot(rel)
        };
        let mut draw_npc = |i: usize| {
            let npc = &scene.npcs[i];
            let pose = npc.pose(scene.track);
            let rel = pose.pos - cam_pos;
            let f = fwd.dot(rel);
            let l = left.dot(rel);
            if !(1.5..=95.0).contains(&f) {
                return;
            }
            let px_center = cx - fx * l / f;
            let py_bottom = cy + fy * cfg.cam_height / f;
            let width_px = fx * npc.width / f;
            let height_px = fy * 1.45 / f;
            let x0 = (px_center - width_px / 2.0).floor().max(0.0) as usize;
            let x1 = (px_center + width_px / 2.0).ceil().min(w as f64) as usize;
            let y1 = py_bottom.min(h as f64).max(0.0) as usize;
            let y0 = (py_bottom - height_px).floor().max(0.0) as usize;
            if x0 >= x1 || y0 >= y1 {
                return;
            }
            // Vehicle paint: strongly blue signature, shaded by distance and
            // paint variety (the perception kernel keys on blueness).
            let fade = 1.0 / (1.0 + 0.006 * f);
            let shade = npc.shade as f64 * 10.0;
            let base =
                [(38.0 + shade) * fade, (42.0 + shade) * fade, (205.0 + shade).min(235.0) * fade];
            let span_w = (x1 - x0).max(1) as f64;
            let span = x1 - x0;
            // Texture anchored to the vehicle body (4×4 panels) so the pattern
            // shifts with the projected box. The panel coordinates are the only
            // inputs to the texture key, so all 16 hashes hoist out of the
            // pixel loops.
            let mut panel = [[0.0f64; 4]; 4];
            for (u, col) in panel.iter_mut().enumerate() {
                for (v, t) in col.iter_mut().enumerate() {
                    *t = hash_amp(0xCAFE ^ (i as u64) << 8, (u as u64) * 16 + v as u64) * 14.0;
                }
            }
            let (noise_box, vals_box) = (&mut noise_row[..3 * span], &mut vals_row[..3 * span]);
            for py in y0..y1 {
                let v = ((py as f64 - y0 as f64) / (y1 - y0).max(1) as f64 * 4.0) as usize;
                // The box repaints the background's pixels with the same
                // per-pixel noise: the same key-table bytes, same frame key.
                let at = (py * w + x0) * 3;
                fill_noise(noise_box, &keys[at..][..3 * span], noise_key, noise_amp);
                for (dx, v3) in vals_box.chunks_exact_mut(3).enumerate() {
                    let px = x0 + dx;
                    let u = ((px as f64 - x0 as f64) / span_w * 4.0) as usize;
                    let tex = panel[u][v];
                    v3[0] = base[0] + tex;
                    v3[1] = base[1] + tex;
                    v3[2] = base[2] + tex;
                }
                add_noise_quantize(&mut img.data[at..][..span * 3], vals_box, noise_box);
            }
        };
        if n_npcs <= 128 {
            let mut drawn: u128 = 0;
            for _ in 0..n_npcs {
                let mut best: Option<(usize, f64)> = None;
                for i in 0..n_npcs {
                    if drawn & (1u128 << i) != 0 {
                        continue;
                    }
                    let d = depth(i);
                    if best.is_none_or(|(_, bd)| d > bd) {
                        best = Some((i, d));
                    }
                }
                let (i, _) = best.expect("an undrawn NPC remains");
                drawn |= 1u128 << i;
                draw_npc(i);
            }
        } else {
            let mut order: Vec<usize> = (0..n_npcs).collect();
            order.sort_by(|&a, &b| depth(b).partial_cmp(&depth(a)).expect("finite depths"));
            for i in order {
                draw_npc(i);
            }
        }
    });
}

/// Whether track coordinates `(lat, along)` fall on a lane marking.
fn marking_at(lat: f64, along: f64, halfwidth: f64) -> bool {
    // Right road edge (solid), lane divider (dashed), left road edge (solid).
    let right = -LANE_WIDTH / 2.0;
    let mid = LANE_WIDTH / 2.0;
    let leftb = 1.5 * LANE_WIDTH;
    if (lat - right).abs() < halfwidth || (lat - leftb).abs() < halfwidth {
        return true;
    }
    if (lat - mid).abs() < halfwidth {
        return along.rem_euclid(4.0) < 2.0;
    }
    false
}

/// Ray–segment intersection: returns distance along the ray, if any.
fn ray_segment(o: Vec2, d: Vec2, a: Vec2, b: Vec2) -> Option<f64> {
    let v = b - a;
    let denom = d.cross(v);
    if denom.abs() < 1e-12 {
        return None;
    }
    let ao = a - o;
    let t = ao.cross(v) / denom;
    let u = ao.cross(d) / denom;
    (t >= 0.0 && (0.0..=1.0).contains(&u)).then_some(t)
}

/// Produce a LiDAR scan: one range per azimuth bin, with small noise.
pub fn lidar_scan(cfg: &SensorConfig, scene: &RenderScene<'_>) -> Vec<f32> {
    let mut out = Vec::new();
    lidar_scan_into(cfg, scene, &mut out);
    out
}

/// [`lidar_scan`] into a caller-owned buffer, reusing its allocation.
///
/// NPC footprints are flattened into a per-scan segment list once, so each
/// of the `lidar_rays` casts is a tight pass over precomputed segments
/// instead of re-deriving every footprint per ray.
pub fn lidar_scan_into(cfg: &SensorConfig, scene: &RenderScene<'_>, out: &mut Vec<f32>) {
    let n = cfg.lidar_rays;
    SEGMENTS.with(|cell| {
        let mut segs = cell.borrow_mut();
        segs.clear();
        for npc in scene.npcs {
            let fp = npc.footprint(scene.track);
            let corners = fp.corners();
            for k in 0..4 {
                segs.push((corners[k], corners[(k + 1) % 4]));
            }
        }
        let origin = scene.ego.pos;
        out.clear();
        out.extend((0..n).map(|i| {
            let az = scene.ego.heading + i as f64 / n as f64 * std::f64::consts::TAU;
            let dir = Vec2::from_heading(az);
            let mut r = cfg.lidar_range;
            for &(a, b) in segs.iter() {
                if let Some(t) = ray_segment(origin, dir, a, b) {
                    if t < r {
                        r = t;
                    }
                }
            }
            let noise = hash_amp(scene.frame_seed ^ 0x11DA, i as u64) * 0.03;
            (r + noise) as f32
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npc::NpcBehavior;
    use proptest::prelude::*;

    fn scene_with<'a>(track: &'a Track, npcs: &'a [Npc], seed: u64) -> RenderScene<'a> {
        RenderScene { track, ego: Pose::new(Vec2::ZERO, 0.0), ego_s: 0.0, npcs, frame_seed: seed }
    }

    #[test]
    fn image_pixel_roundtrip() {
        let mut img = Image::new(4, 3);
        img.set_pixel(2, 1, [1, 2, 3]);
        assert_eq!(img.pixel(2, 1), [1, 2, 3]);
        assert_eq!(img.pixel(0, 0), [0, 0, 0]);
        assert_eq!(img.data().len(), 4 * 3 * 3);
    }

    #[test]
    fn render_is_deterministic() {
        let track = Track::straight(200.0);
        let npcs = [Npc::new(25.0, 0.0, 5.0, NpcBehavior::Cruise)];
        let cfg = SensorConfig::default();
        let a = render_camera(&cfg, &scene_with(&track, &npcs, 7), 1);
        let b = render_camera(&cfg, &scene_with(&track, &npcs, 7), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn frame_seed_changes_pixels() {
        let track = Track::straight(200.0);
        let npcs = [];
        let cfg = SensorConfig::default();
        let a = render_camera(&cfg, &scene_with(&track, &npcs, 1), 1);
        let b = render_camera(&cfg, &scene_with(&track, &npcs, 2), 1);
        assert_ne!(a, b, "per-frame noise must differ between frames");
    }

    #[test]
    fn vehicle_is_visible_and_blue() {
        let track = Track::straight(200.0);
        let npcs = [Npc::new(20.0, 0.0, 5.0, NpcBehavior::Cruise)];
        let cfg = SensorConfig::default();
        let img = render_camera(&cfg, &scene_with(&track, &npcs, 3), 1);
        // Somewhere below the horizon there must be a strongly blue pixel.
        let mut max_blueness = i32::MIN;
        for y in cfg.height / 2..cfg.height {
            for x in 0..cfg.width {
                let [r, g, b] = img.pixel(x, y);
                max_blueness = max_blueness.max(b as i32 - (r as i32 + g as i32) / 2);
            }
        }
        assert!(max_blueness > 60, "vehicle blueness {max_blueness}");
    }

    #[test]
    fn closer_vehicle_has_lower_bottom_row() {
        let track = Track::straight(300.0);
        let cfg = SensorConfig::default();
        let bottom_row = |dist: f64| {
            let npcs = [Npc::new(dist, 0.0, 5.0, NpcBehavior::Cruise)];
            let img = render_camera(&cfg, &scene_with(&track, &npcs, 3), 1);
            (0..cfg.height)
                .rev()
                .find(|&y| {
                    (0..cfg.width).any(|x| {
                        let [r, g, b] = img.pixel(x, y);
                        b as i32 - (r as i32 + g as i32) / 2 > 60
                    })
                })
                .expect("vehicle visible")
        };
        let near = bottom_row(12.0);
        let far = bottom_row(40.0);
        assert!(near > far, "near bottom row {near} vs far {far}");
    }

    #[test]
    fn lane_markings_appear_in_bottom_rows() {
        let track = Track::straight(200.0);
        let cfg = SensorConfig::default();
        let img = render_camera(&cfg, &scene_with(&track, &[], 9), 1);
        // Bright (whitish) pixels in the bottom third.
        let mut found = false;
        for y in cfg.height * 2 / 3..cfg.height {
            for x in 0..cfg.width {
                let [r, g, b] = img.pixel(x, y);
                if r > 160 && g > 160 && b > 150 {
                    found = true;
                }
            }
        }
        assert!(found, "no lane markings rendered");
    }

    #[test]
    fn sky_above_horizon_is_not_vehicle_blue() {
        let track = Track::straight(200.0);
        let cfg = SensorConfig::default();
        let img = render_camera(&cfg, &scene_with(&track, &[], 9), 1);
        for y in 0..cfg.height / 2 {
            for x in 0..cfg.width {
                let [r, g, b] = img.pixel(x, y);
                let blueness = b as i32 - (r as i32 + g as i32) / 2;
                assert!(blueness < 45, "sky pixel ({x},{y}) too blue: {blueness}");
            }
        }
    }

    #[test]
    fn marking_pattern_dashes() {
        // Divider dashes: on for along ∈ [0,2), off for [2,4).
        assert!(marking_at(LANE_WIDTH / 2.0, 1.0, 0.1));
        assert!(!marking_at(LANE_WIDTH / 2.0, 3.0, 0.1));
        // Edges solid regardless of along.
        assert!(marking_at(-LANE_WIDTH / 2.0, 3.0, 0.1));
        assert!(marking_at(1.5 * LANE_WIDTH, 7.7, 0.1));
        // Lane centers are unmarked.
        assert!(!marking_at(0.0, 1.0, 0.1));
    }

    #[test]
    fn lidar_sees_vehicle_ahead() {
        let track = Track::straight(200.0);
        let npcs = [Npc::new(20.0, 0.0, 0.0, NpcBehavior::Cruise)];
        let cfg = SensorConfig { enable_lidar: true, ..Default::default() };
        let scan = lidar_scan(&cfg, &scene_with(&track, &npcs, 5));
        assert_eq!(scan.len(), cfg.lidar_rays);
        // Ray 0 points along +x (ego heading): hits the NPC rear at ~17.8 m.
        assert!(
            (scan[0] - 17.8).abs() < 0.5,
            "forward LiDAR range {} should be near the NPC rear",
            scan[0]
        );
        // A sideways ray sees max range.
        let side = scan[cfg.lidar_rays / 4];
        assert!(side > cfg.lidar_range as f32 - 1.0);
    }

    #[test]
    fn ray_segment_math() {
        // Ray along +x hits the vertical segment x=5, y ∈ [-1, 1] at t=5.
        let t =
            ray_segment(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(5.0, -1.0), Vec2::new(5.0, 1.0));
        assert!((t.expect("hit") - 5.0).abs() < 1e-9);
        // Misses a segment off to the side.
        let miss =
            ray_segment(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(5.0, 2.0), Vec2::new(5.0, 3.0));
        assert_eq!(miss, None);
        // Behind the origin → no hit.
        let behind = ray_segment(
            Vec2::ZERO,
            Vec2::new(1.0, 0.0),
            Vec2::new(-5.0, -1.0),
            Vec2::new(-5.0, 1.0),
        );
        assert_eq!(behind, None);
    }

    #[test]
    fn hash_amp_is_bounded_and_stable() {
        for i in 0..1000u64 {
            let v = hash_amp(i, i * 31);
            assert!((-1.0..=1.0).contains(&v));
            assert_eq!(v, hash_amp(i, i * 31));
        }
    }

    /// The branch-free quantizer must agree bit-for-bit with the naive
    /// `round → clamp → saturating cast` definition everywhere: a dense
    /// sweep of the clamp range, hash-derived values like the renderer
    /// feeds it, exact `.5` ties on both sides of zero, near-tie ulp
    /// neighbours (the case its overshoot correction exists for), and the
    /// non-finite edge cases.
    #[test]
    fn quantize_matches_naive_rounding() {
        let naive = |v: f64| v.round().clamp(0.0, 255.0) as u8;
        let mut x = -5.0f64;
        while x < 261.0 {
            assert_eq!(quantize(x), naive(x), "sweep at {x}");
            x += 0.000_37;
        }
        for k in 0..100_000u64 {
            let v = hash_amp(99, k) * 300.0;
            assert_eq!(quantize(v), naive(v), "hash value {v}");
            let tie = (k % 257) as f64 + 0.5;
            assert_eq!(quantize(tie), naive(tie), "tie at {tie}");
            assert_eq!(quantize(-tie), naive(-tie), "tie at {}", -tie);
            let below = f64::from_bits(tie.to_bits() - 1);
            let above = f64::from_bits(tie.to_bits() + 1);
            assert_eq!(quantize(below), naive(below), "below tie {below:?}");
            assert_eq!(quantize(above), naive(above), "above tie {above:?}");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0] {
            assert_eq!(quantize(v), naive(v), "edge case {v:?}");
        }
    }

    /// Floors `values` and checks that [`cell_words`] converts the row
    /// exactly as the saturating `f.floor() as i64 as u64` of each value.
    fn check_cell_words(values: &[f64]) -> Result<(), String> {
        let floors: Vec<f64> = values.iter().map(|v| v.floor()).collect();
        let mut out = vec![0xDEAD; floors.len()];
        cell_words(&floors, &mut out);
        for (i, (&f, &o)) in floors.iter().zip(&out).enumerate() {
            if o != f as i64 as u64 {
                return Err(format!("pixel {i}: floor {f:?} gave {o:#x}, want {:#x}", f as i64));
            }
        }
        Ok(())
    }

    /// The cell conversion's edge cases, one value per row and all in one
    /// row: signed zeros and halves, the 2⁵¹ boundary of the magic-number
    /// path, 2⁵² and 2⁶³, subnormals, infinities and NaN; and a row of
    /// in-range values with one out-of-range value at each position in
    /// turn, which must take the saturating cast for the whole row.
    #[test]
    fn cell_words_match_the_saturating_cast_at_the_edges() {
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
        ];
        for v in [0.0, 0.5, two(51) - 1.0, two(51), two(52), two(63)] {
            edges.extend([v, -v]);
        }
        edges.extend(edges.clone().iter().map(|v| -v));
        for &v in &edges {
            check_cell_words(&[v]).unwrap();
        }
        check_cell_words(&edges).unwrap();
        let in_range: Vec<f64> = (0..64).map(|i| (i as f64 - 31.7) * 1.3e13).collect();
        check_cell_words(&in_range).unwrap();
        for out_of_range in [two(51), -two(51), two(63), f64::NAN, f64::NEG_INFINITY] {
            for at in 0..in_range.len() {
                let mut row = in_range.clone();
                row[at] = out_of_range;
                check_cell_words(&row).unwrap();
            }
        }
    }

    /// `unit` as its definition reads: the top 53 bits as a fraction of
    /// 2⁵³, doubled, less one.
    fn unit_by_division(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    #[test]
    fn unit_matches_the_division_at_the_edges() {
        let mut edges = vec![0, (1 << 11) - 1, 1 << 11, u64::MAX, u64::MAX - 1, u64::MAX >> 1];
        for e in 0..64 {
            edges.extend([1u64 << e, (1u64 << e) - 1, (1u64 << e).wrapping_add(1)]);
        }
        for h in edges {
            assert_eq!(unit(h).to_bits(), unit_by_division(h).to_bits(), "hash {h:#x}");
        }
        assert_eq!(unit(0), -1.0);
        assert_eq!(unit(u64::MAX), 1.0 - TWO_POW_MINUS_52);
    }

    proptest! {
        /// `unit` is bit-identical to its definition on any hash.
        #[test]
        fn unit_matches_the_division_on_any_hash(h in any::<u64>()) {
            prop_assert_eq!(unit(h).to_bits(), unit_by_division(h).to_bits());
        }

        /// Rows of arbitrary f64 bit patterns, NaN payloads and infinities
        /// included.
        #[test]
        fn cell_words_match_the_saturating_cast_on_any_bits(
            bits in proptest::collection::vec(any::<u64>(), 1..80)
        ) {
            let row: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            check_cell_words(&row).map_err(TestCaseError)?;
        }

        /// Rows whose magnitudes mostly lie below 2⁵¹, so the magic-number
        /// path runs, with exponents reaching past the boundary.
        #[test]
        fn cell_words_match_the_saturating_cast_near_the_boundary(
            bits in proptest::collection::vec(any::<u64>(), 1..80),
            exp_span in 1u64..54
        ) {
            // Keep sign and mantissa; the magnitude lands in [1, 2^exp_span).
            let row: Vec<f64> = bits
                .iter()
                .map(|&b| f64::from_bits(b & 0x800F_FFFF_FFFF_FFFF | (1023 + b % exp_span) << 52))
                .collect();
            check_cell_words(&row).map_err(TestCaseError)?;
        }
    }
}
