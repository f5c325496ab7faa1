"""Persistent compiled-artifact store + parallel deduplicated compilation.

Paper Alg. 1 is the expensive offline step everything else rides on, yet
its output is a deterministic function of the compilation context: the
layer's shape signature, its QoS budget, the cost-model parameters, the
CPU spec, the compiler knobs, and the search seed.  This module makes
that determinism pay twice:

* **Dedup** — zoo models share many conv/dense signatures, so each
  unique ``(signature, budget)`` compiles once per process and, with an
  on-disk store, once *ever* per compilation context.
* **Persistence** — :class:`ArtifactStore` is a schema-versioned,
  content-addressed JSON store.  Keys chain ``zlib.crc32`` over the
  canonical context (the same salt-free discipline ``multiversion.py``
  uses for search seeds); every entry also records the full canonical
  key material, so a digest collision degrades to a miss, never to a
  wrong artifact.  Corrupt or schema-mismatched entries are skipped
  (the caller recompiles) and :meth:`ArtifactStore.gc` prunes them.
* **Parallelism** — :func:`compile_layers` fans independent layer
  compilations over the shared ``fork`` worker pool
  (:mod:`repro.parallel`); results are bit-identical to the serial
  path because each compilation is seeded per layer signature.

Cached artifacts are bit-identical to fresh compiles: floats survive the
JSON round trip exactly (``repr`` round-tripping), and the store key
covers everything the compile depends on, so no figure moves when a
stack is rebuilt from a warm store.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.models.layers import LayerSpec
from repro.compiler.multiversion import CompiledLayer, SinglePassCompiler
from repro.compiler.schedule import Schedule

#: Bump on any incompatible change to the artifact payload layout or to
#: anything the compile depends on that the key does not capture.
ARTIFACT_SCHEMA = "repro.compiler.artifact/1"

#: Environment variable naming the default on-disk store directory.
STORE_ENV = "REPRO_ARTIFACT_STORE"

#: Budget rounding shared with :class:`repro.compiler.library.ModelCompiler`
#: so in-memory dedup and the persistent store agree on identity.
BUDGET_DECIMALS = 9


# ---------------------------------------------------------------------------
# Content addressing


def _digest(parts: list[str]) -> str:
    """A 16-hex-digit digest chaining two independent crc32 streams.

    crc32 (not ``hash()``) keeps keys stable across processes —
    PYTHONHASHSEED salts str/tuple hashes, which would make every run
    miss a store the previous run wrote.
    """
    forward, backward = 0, 0x9E3779B9
    for part in parts:
        data = part.encode()
        forward = zlib.crc32(data, forward)
        backward = zlib.crc32(data[::-1], backward)
    return f"{forward & 0xFFFFFFFF:08x}{backward & 0xFFFFFFFF:08x}"


def compiler_context(single_pass: SinglePassCompiler) -> dict:
    """Everything the compile result depends on besides (layer, budget).

    Covers the cost-model parameters, the CPU spec, every Alg. 1 knob,
    the evolutionary-search shape, and the seed — the key schema the
    store is addressed by.

    This key schema is frozen: the ``frozen-key-schema`` static check
    diffs the keys built here (and the fields of the spec dataclasses
    they serialize) against ``src/repro/checks/schema_snapshot.json``.
    Adding, removing, or reordering a key — or changing a spec field's
    annotation or default — changes what stores address and silently
    strands or revalidates warm entries, so the check fails until the
    change is made deliberate: bump :data:`ARTIFACT_SCHEMA`, run
    ``python -m repro.checks --update-schema``, and commit the
    regenerated snapshot together with the code change.
    """
    cost_model = single_pass.cost_model
    scheduler = single_pass.scheduler
    context = {
        "schema": ARTIFACT_SCHEMA,
        "cpu": dataclasses.asdict(cost_model.cpu),
        "params": dataclasses.asdict(cost_model.params),
        "trials": single_pass.trials,
        "levels": list(single_pass.levels),
        "max_versions": single_pass.max_versions,
        "keep_threshold": single_pass.keep_threshold,
        "tuning_cores": single_pass.tuning_cores,
        "seed": single_pass.seed,
        "population": scheduler.population,
        "elite_fraction": scheduler.elite_fraction,
    }
    # Non-CPU device kinds join the key under their own name.  CPU
    # contexts stay byte-identical to the pre-DeviceSpec schema, so
    # every artifact a CPU store already holds keeps hitting.
    kind = getattr(cost_model.cpu, "kind", "cpu")
    if kind != "cpu":
        context["device_kind"] = kind
    return context


def context_fingerprint(context: dict) -> str:
    """Stable digest of a :func:`compiler_context` mapping."""
    return _digest([json.dumps(context, sort_keys=True)])


def artifact_key(context_fp: str, signature: tuple,
                 qos_budget_s: float) -> str:
    """The content address of one compiled layer."""
    return _digest([context_fp, repr(signature),
                    repr(round(qos_budget_s, BUDGET_DECIMALS))])


# ---------------------------------------------------------------------------
# CompiledLayer <-> JSON payload


def _schedule_payload(schedule: Schedule) -> dict:
    return {"tile_m": schedule.tile_m, "tile_n": schedule.tile_n,
            "tile_k": schedule.tile_k,
            "parallel_chunks": schedule.parallel_chunks,
            "unroll": schedule.unroll,
            "vector_lanes": schedule.vector_lanes}


def _schedule_from_payload(payload: dict) -> Schedule:
    return Schedule(tile_m=int(payload["tile_m"]),
                    tile_n=int(payload["tile_n"]),
                    tile_k=int(payload["tile_k"]),
                    parallel_chunks=int(payload["parallel_chunks"]),
                    unroll=int(payload["unroll"]),
                    vector_lanes=int(payload["vector_lanes"]))


def layer_payload(key: str, context_fp: str,
                  compiled: CompiledLayer) -> dict:
    """Serialise one compiled layer (the layer object itself excluded).

    The :class:`LayerSpec` is identified by its signature only: two
    layers with equal signatures behave identically under the cost
    model, so the store rebinds the table to whichever instance asks.
    """
    return {
        "schema": ARTIFACT_SCHEMA,
        "key": key,
        "context": context_fp,
        "signature": repr(compiled.layer.signature),
        "qos_budget_s": compiled.qos_budget_s,
        "levels": list(compiled.levels),
        "versions": [_schedule_payload(v) for v in compiled.versions],
        "latency_table": [list(row) for row in compiled.latency_table],
        "version_for_level": list(compiled.version_for_level),
        "dominant_count": compiled.dominant_count,
        "sample_count": compiled.sample_count,
    }


def layer_from_payload(payload: dict, layer: LayerSpec) -> CompiledLayer:
    """Rebuild a :class:`CompiledLayer` bound to ``layer``.

    Raises on any malformed payload; callers treat that as a miss.
    """
    return CompiledLayer(
        layer=layer,
        qos_budget_s=float(payload["qos_budget_s"]),
        levels=tuple(float(v) for v in payload["levels"]),
        versions=tuple(_schedule_from_payload(v)
                       for v in payload["versions"]),
        latency_table=tuple(tuple(float(x) for x in row)
                            for row in payload["latency_table"]),
        version_for_level=tuple(int(v)
                                for v in payload["version_for_level"]),
        dominant_count=int(payload["dominant_count"]),
        sample_count=int(payload["sample_count"]),
    )


# ---------------------------------------------------------------------------
# The store


@dataclass
class StoreStats:
    """Counters over one store's lifetime in this process."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0


class ArtifactStore:
    """Content-addressed compiled-layer store, optionally disk-backed.

    With ``path=None`` the store is in-memory only (pure cross-model
    dedup); with a directory path every entry is also one
    ``art_<key>.json`` file, shared across processes and CI runs.
    Entries self-describe their schema, key, context fingerprint, and
    signature; :meth:`get` verifies all four before trusting a file, so
    a stale schema, a digest collision, or plain corruption falls back
    to recompilation instead of serving a wrong artifact.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._memory: dict[str, dict] = {}
        self.stats = StoreStats()

    @classmethod
    def from_env(cls) -> "ArtifactStore | None":
        """The store named by ``REPRO_ARTIFACT_STORE``, or ``None``."""
        path = os.environ.get(STORE_ENV, "").strip()
        return cls(path) if path else None

    # -- persistence ---------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.path / f"art_{key}.json"

    def _valid(self, payload: object, key: str, context_fp: str,
               signature: tuple, qos_budget_s: float) -> bool:
        if not (isinstance(payload, dict)
                and payload.get("schema") == ARTIFACT_SCHEMA
                and payload.get("key") == key
                and payload.get("context") == context_fp
                and payload.get("signature") == repr(signature)):
            return False
        # The full key material must match, budget included — a digest
        # collision between two budgets of one layer must degrade to a
        # miss, never serve the wrong version tables.  Compared at the
        # key's rounding precision (payloads record the unrounded
        # budget the compile ran with).
        recorded = payload.get("qos_budget_s")
        return (isinstance(recorded, (int, float))
                and round(float(recorded), BUDGET_DECIMALS)
                == round(qos_budget_s, BUDGET_DECIMALS))

    def get(self, key: str, context_fp: str,
            layer: LayerSpec, qos_budget_s: float) -> CompiledLayer | None:
        """The cached artifact rebound to ``layer``, or ``None`` (miss)."""
        payload = self._memory.get(key)
        if payload is None and self.path is not None:
            entry = self._entry_path(key)
            try:
                payload = json.loads(entry.read_text())
            except FileNotFoundError:
                payload = None
            except (OSError, ValueError):
                self.stats.corrupt += 1
                payload = None
        if payload is not None and self._valid(payload, key, context_fp,
                                               layer.signature,
                                               qos_budget_s):
            try:
                compiled = layer_from_payload(payload, layer)
            except (KeyError, TypeError, ValueError):
                self.stats.corrupt += 1
            else:
                self._memory[key] = payload
                self.stats.hits += 1
                return compiled
        self.stats.misses += 1
        return None

    def put(self, key: str, context_fp: str,
            compiled: CompiledLayer) -> None:
        """Record one compiled layer (memory, plus disk when backed)."""
        payload = layer_payload(key, context_fp, compiled)
        self._memory[key] = payload
        self.stats.writes += 1
        if self.path is not None:
            self._write_entry(key, payload)

    def _write_entry(self, key: str, payload: dict) -> None:
        # Atomic write: a crashed or concurrent writer must never leave
        # a half-file another process would read as corrupt.  Any
        # OSError — unwritable/read-only directory, full disk —
        # degrades to in-memory caching.
        tmp_name = None
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.path, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
            os.replace(tmp_name, self._entry_path(key))
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    # -- bulk operations -----------------------------------------------------

    def _disk_entries(self) -> list[Path]:
        if self.path is None or not self.path.is_dir():
            return []
        return sorted(self.path.glob("art_*.json"))

    def gc(self, drop_all: bool = False) -> list[str]:
        """Delete invalid (or, with ``drop_all``, every) disk entries.

        An entry is invalid when it cannot be parsed, fails schema
        validation, or its filename disagrees with its recorded key.
        Returns the deleted file names.
        """
        deleted = []
        for entry in self._disk_entries():
            drop = drop_all
            if not drop:
                try:
                    payload = json.loads(entry.read_text())
                except (OSError, ValueError):
                    drop = True
                else:
                    drop = not (isinstance(payload, dict)
                                and payload.get("schema") == ARTIFACT_SCHEMA
                                and entry.name ==
                                f"art_{payload.get('key')}.json")
            if drop:
                entry.unlink(missing_ok=True)
                deleted.append(entry.name)
        if drop_all:
            self._memory.clear()
        return deleted

    def entries(self) -> list[dict]:
        """Summaries of every disk entry (the CLI's inspect view)."""
        rows = []
        for entry in self._disk_entries():
            row = {"file": entry.name, "bytes": entry.stat().st_size,
                   "valid": False}
            try:
                payload = json.loads(entry.read_text())
            except (OSError, ValueError):
                rows.append(row)
                continue
            if isinstance(payload, dict):
                row.update(
                    valid=payload.get("schema") == ARTIFACT_SCHEMA,
                    schema=payload.get("schema"),
                    signature=payload.get("signature"),
                    context=payload.get("context"),
                    versions=len(payload.get("versions") or ()),
                    qos_budget_s=payload.get("qos_budget_s"))
            rows.append(row)
        return rows


def resolve_store(store: "ArtifactStore | str | Path | None",
                  ) -> "ArtifactStore | None":
    """Normalise the ``artifact_store=`` argument of the serving layer.

    ``"auto"`` consults :data:`STORE_ENV`; ``None`` disables
    persistence (in-memory dedup still applies); a path string builds a
    disk-backed store; a store instance passes through.
    """
    if store == "auto":
        return ArtifactStore.from_env()
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


# ---------------------------------------------------------------------------
# Parallel layer compilation


def compile_layers(single_pass: SinglePassCompiler,
                   work: list[tuple[LayerSpec, float]],
                   workers: int = 1) -> list[CompiledLayer]:
    """Compile independent (layer, budget) items, optionally in parallel.

    Every item is an independent Alg. 1 run seeded by its layer
    signature, so the fan-out (:func:`repro.parallel.sweep`) is
    embarrassingly parallel and the results are bit-identical to the
    serial path.  ``workers <= 1``, a platform without ``fork``, or a
    pool failure mid-run all fall back to in-process compilation.
    """
    from repro.parallel import sweep
    return sweep(lambda item: single_pass.compile_layer(*item), work,
                 workers=workers)
