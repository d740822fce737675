"""Deterministic synthetic scenes: primitive surfaces with semantic classes,
seeded sampling, and camera-style query observations."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config, make_rng
from .core import LabeledPointCloud, Pose, canonical_heading, yaw_rotation
from .projection import frustum_window
from .encoder import QueryObservation
from .io_datasets import QueryRecord
from .viewpoints import render_viewpoints

CLASS_GROUND = 1
CLASS_ROAD = 2
CLASS_BUILDING = 3
CLASS_TREE = 4
CLASS_POLE = 5

SENSOR_HEIGHT = 1.6
#: side of the square ground plane of a place, whose area no other
#: primitive's exceeds
GROUND_SIDE = 60.0

#: fixed per-class appearance colors standing in for RGB pixels; class 0 is
#: void and stays black
PALETTE = make_rng(0x9E3779B9, 1).uniform(0.15, 0.85, (64, 3))
PALETTE[0] = 0.0

#: classes swapped between the members of a geometry-aliased place pair
ALIAS_SWAP = {CLASS_BUILDING: CLASS_TREE, CLASS_TREE: CLASS_BUILDING,
              CLASS_ROAD: CLASS_POLE, CLASS_POLE: CLASS_ROAD}


@dataclass(frozen=True)
class Primitive:
    kind: str          # plane | box | cylinder
    cls: int
    center: np.ndarray  # world xy(z)
    size: np.ndarray    # plane: (sx, sy, z); box: (sx, sy, h); cyl: (r, h, 0)

    def area(self) -> float:
        sx, sy, h = self.size
        if self.kind == "plane":
            return sx * sy
        if self.kind == "box":
            return 2.0 * (sx + sy) * h + sx * sy
        return 2.0 * math.pi * sx * h


@dataclass(frozen=True)
class PlaceSpec:
    place_id: int
    position: np.ndarray  # world (x, y, z=0)
    scene_seed: int
    swap_classes: bool


@dataclass(frozen=True)
class SyntheticWorld:
    places: list
    seed: int
    density: float

    def place(self, place_id: int) -> PlaceSpec:
        for p in self.places:
            if p.place_id == place_id:
                return p
        raise KeyError(f"unknown place {place_id}")


def generate_world(n_places: int, seed: int, cfg: Config, density: float = 4.0,
                   aliased_pairs: bool = False) -> SyntheticWorld:
    """Seeded world: places on a jittered grid, spacing >> match threshold.

    With aliased_pairs, consecutive places share a scene seed (identical
    geometry) but swap the semantic classes of their primitives.
    """
    if n_places < 1:
        raise ValueError("n_places must be >= 1")
    grid_rng = make_rng(seed, 1)
    spacing = max(8.0 * cfg.match_threshold_m, 40.0)
    side = math.ceil(math.sqrt(n_places))
    places = []
    for i in range(n_places):
        gx, gy = i % side, i // side
        jitter = grid_rng.uniform(-2.0, 2.0, 2) if i else np.zeros(2)
        pos = np.array([gx * spacing + jitter[0], gy * spacing + jitter[1], 0.0])
        if aliased_pairs:
            scene_seed = seed + 1000 + (i // 2)
            swap = bool(i % 2)
        else:
            scene_seed = seed + 1000 + i
            swap = False
        places.append(PlaceSpec(i, pos, scene_seed, swap))
    return SyntheticWorld(places, seed, density)


def place_primitives(place: PlaceSpec) -> list:
    rng = make_rng(place.scene_seed, 2)
    px, py = place.position[0], place.position[1]
    prims = [
        Primitive("plane", CLASS_GROUND, np.array([px, py, 0.0]),
                  np.array([GROUND_SIDE, GROUND_SIDE, 0.0])),
        Primitive("plane", CLASS_ROAD, np.array([px, py, 0.02]),
                  np.array([GROUND_SIDE, rng.uniform(6.0, 10.0), 0.02])),
    ]

    def ring_xy(rmin, rmax):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(rmin, rmax)
        return np.array([px + rad * math.cos(ang), py + rad * math.sin(ang), 0.0])

    for _ in range(int(rng.integers(4, 9))):
        prims.append(Primitive("box", CLASS_BUILDING, ring_xy(10.0, 26.0),
                               np.array([rng.uniform(6.0, 12.0),
                                         rng.uniform(6.0, 12.0),
                                         rng.uniform(4.0, 10.0)])))
    for _ in range(int(rng.integers(6, 13))):
        prims.append(Primitive("cylinder", CLASS_TREE, ring_xy(6.0, 24.0),
                               np.array([rng.uniform(0.8, 2.0),
                                         rng.uniform(3.0, 6.0), 0.0])))
    for _ in range(int(rng.integers(3, 7))):
        prims.append(Primitive("cylinder", CLASS_POLE, ring_xy(4.0, 20.0),
                               np.array([0.15, 5.0, 0.0])))
    if place.swap_classes:
        prims = [Primitive(p.kind, ALIAS_SWAP.get(p.cls, p.cls), p.center, p.size)
                 for p in prims]
    return prims


def _sample_primitive(prim: Primitive, n: int, rng) -> np.ndarray:
    cx, cy, cz = prim.center
    sx, sy, h = prim.size
    if prim.kind == "plane":
        u = rng.uniform(-0.5, 0.5, (n, 2))
        return np.column_stack([cx + u[:, 0] * sx, cy + u[:, 1] * sy,
                                np.full(n, cz)])
    if prim.kind == "box":
        side_areas = np.array([sy * h, sy * h, sx * h, sx * h, sx * sy])
        face = rng.choice(5, size=n, p=side_areas / side_areas.sum())
        a, b = rng.uniform(-0.5, 0.5, (n, 2)).T
        # faces -x, +x, -y, +y (walls) and the roof
        ax, ay = cx + a * sx, cy + a * sy
        x = np.choose(face, (cx - sx / 2, cx + sx / 2, ax, ax, ax))
        y = np.choose(face, (ay, ay, cy - sy / 2, cy + sy / 2, cy + b * sy))
        z = np.where(face == 4, h, (b + 0.5) * h)
        return np.column_stack([x, y, z])
    # cylinder lateral surface
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    z = rng.uniform(0.0, h, n)
    return np.column_stack([cx + sx * np.cos(ang), cy + sx * np.sin(ang), z])


def sample_cloud(world: SyntheticWorld, place_id: int, density: float,
                 rng) -> LabeledPointCloud:
    """Surface-sample every primitive of a place at points/m^2."""
    place = world.place(place_id)
    prims = place_primitives(place) if density > 0.0 else []
    counts = [int(round(prim.area() * density)) for prim in prims]
    pts = [_sample_primitive(prim, n, rng) for prim, n in zip(prims, counts) if n]
    labels = np.repeat([prim.cls for prim in prims], counts).astype(np.uint16)
    return LabeledPointCloud(np.vstack(pts) if pts else np.empty((0, 3)), labels)


def canonical_cloud(world: SyntheticWorld, place_id: int) -> LabeledPointCloud:
    """The map cloud of a place: seeded purely by the world seed."""
    return sample_cloud(world, place_id, world.density,
                        make_rng(world.seed, 300, place_id))


def anchor_pose(world: SyntheticWorld, place_id: int) -> Pose:
    pos = world.place(place_id).position + np.array([0.0, 0.0, SENSOR_HEIGHT])
    return Pose(np.eye(3), pos)


def query_pose(world: SyntheticWorld, place_id: int, heading: float) -> Pose:
    pos = world.place(place_id).position + np.array([0.0, 0.0, SENSOR_HEIGHT])
    return Pose(yaw_rotation(canonical_heading(heading)), pos)


def observation_from_render(depth, normals, labels, noise_level: float,
                            cfg: Config, rng) -> QueryObservation:
    """Assemble raw query channels from a frustum render and the (n, 3)
    normal rows of its filled cells, row-major.

    Channels: normalized depth, normal xyz, and three appearance channels
    (per-class color plus seeded noise). Cells with no return are masked out.
    """
    h, w = depth.shape
    mask = depth > 0.0
    raw = np.zeros((h, w, 7))
    raw[..., 0] = np.clip(depth / cfg.max_range_m, 0.0, 1.0)
    raw[mask, 1:4] = normals
    raw[..., 4:7] = PALETTE[labels] + noise_level * rng.standard_normal((h, w, 3))
    raw[~mask] = 0.0
    return QueryObservation(raw, mask, labels.copy())


def make_query(world: SyntheticWorld, place_id: int, heading: float,
               noise_level: float, rng, cfg: Config
               ) -> tuple[QueryObservation, np.ndarray]:
    """Render the front-90-degree frustum at a heading and add appearance."""
    return _render_query(world, canonical_cloud(world, place_id), place_id,
                         heading, noise_level, rng, cfg)


def _render_query(world: SyntheticWorld, cloud: LabeledPointCloud,
                  place_id: int, heading: float, noise_level: float, rng,
                  cfg: Config) -> tuple[QueryObservation, np.ndarray]:
    """make_query on the place's canonical cloud, sampled by the caller."""
    pose = query_pose(world, place_id, heading)
    rng_img, labels = render_viewpoints(cloud, [pose], cfg)
    c0, width = frustum_window(cfg.range_cols)
    sl = slice(c0, c0 + width)
    # the frustum's filled cells keep their row-major order among the rows
    col = np.nonzero(rng_img.depth[0] > 0.0)[1]
    in_window = (col >= c0) & (col < c0 + width)
    obs = observation_from_render(rng_img.depth[0, :, sl],
                                  rng_img.normals[in_window],
                                  labels[0, :, sl], noise_level, cfg, rng)
    return obs, world.place(place_id).position.copy()


def make_queries(world: SyntheticWorld, cfg: Config, stream: int,
                 per_place: int, noise: float) -> list:
    """per_place queries per place, numbered in place order; query j of a
    place takes its viewpoint heading, then its appearance noise, from
    make_rng(world.seed, stream, place_id, j). Each place's canonical cloud
    is sampled once for all its queries."""
    out = []
    for p in world.places:
        cloud = canonical_cloud(world, p.place_id) if per_place else None
        for j in range(per_place):
            qrng = make_rng(world.seed, stream, p.place_id, j)
            k = int(qrng.integers(cfg.n_viewpoints))
            heading = k * 2.0 * math.pi / cfg.n_viewpoints
            obs, gt = _render_query(world, cloud, p.place_id, heading, noise,
                                    qrng, cfg)
            out.append(QueryRecord(len(out), p.place_id, heading, noise, gt, obs))
    return out
