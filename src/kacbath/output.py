"""Deterministic emission of run artifacts: CSV tables, binary dumps, manifest."""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

SNAPSHOT_HEADER = struct.Struct("<5I")  # little-endian: d, M, N, n_traj, n_times


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: Path, columns: list[str], rows, config_hash: str, seed: int) -> None:
    """CSV with a comment header carrying provenance; float formatting is fixed."""
    lines = [f"# config_hash={config_hash} seed={seed}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_snapshots(path: Path, d: int, M: int, N: int, snapshots: np.ndarray) -> None:
    """Binary dump: header of five little-endian uint32 {d, M, N, n_traj, n_times},
    then float64 little-endian system snapshots, row-major (n_traj, n_times, d*M)."""
    n_traj, n_times, dm = snapshots.shape
    if dm != d * M:
        raise ValueError("snapshot width does not match d*M")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_HEADER.pack(d, M, N, n_traj, n_times))
        fh.write(np.ascontiguousarray(snapshots, dtype="<f8").tobytes())


def read_snapshots(path: Path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        d, M, N, n_traj, n_times = SNAPSHOT_HEADER.unpack(fh.read(SNAPSHOT_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(n_traj, n_times, d * M)
    return {"d": d, "M": M, "N": N, "n_traj": n_traj, "n_times": n_times}, data


def file_checksum(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_manifest(
    out_dir: Path,
    version: str,
    config_hash: str,
    seed: int,
    wall_time: float,
    files: list[Path],
) -> Path:
    manifest = {
        "toolkit_version": version,
        "config_hash": config_hash,
        "seed": seed,
        "wall_time_seconds": wall_time,
        "files": {f.name: file_checksum(f) for f in files},
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path
