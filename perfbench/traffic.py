"""Seeded serve traffic and the closed-loop client that sends it.

Three classes of submission:

* ``fresh`` — a new small fuzz assay: a solve plus a cache write;
* ``mutation`` — one duration of an earlier problem changed: a new
  problem key, so a solve (the target of cross-request solver memory);
* ``resubmit`` (``read`` in the read phase) — an earlier problem with
  every operation renamed: a canonical cache hit plus a rename.

The mix is the repository's popular-assay load
(``benchmarks/bench_serve.py``: 4 distinct problems, each submitted 8
times): one *cycle* is :data:`DISTINCT` new problems, then
:data:`COPIES` - 1 relabeled resubmissions of each, round robin as
there.  Of the new problems half are fresh and half are mutations, so
the fresh and the mutation solve latencies rest on equally many samples.
The cycles give the solve latencies and the job throughput.

A hit costs about a thousandth of a solve, so in that mix the hits are
a few hundredths of a second of a cycle.  The hit path is therefore
timed on its own, as ``bench_serve.py`` also does: after the cycles, a
*read phase* of :data:`READ_S` seconds sends only relabeled
resubmissions of the problems answered so far.

One asyncio process holds two connections and one closed loop: the
*writer* connection sends the cycle's new problems one after another,
each waiting for its answer, then the *reader* connection sends the
resubmissions one after another.  A hit therefore never waits behind a
solve.  With the two connections running concurrently, each hit shared
the interpreter lock with a solve thread; its latency was mostly lock
waits and moved by 15-25% between runs.

The seed orders the writer's classes within a cycle, picks which earlier
problem each mutation takes, how it is edited and the new names of a
resubmission.  Fresh problems are the fuzz assays ``FRESH_BASE + 1,
+ 2, ...`` whatever the seed, so the served objective compares like
with like across runs.  The server only ever receives assay text.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: New problems per cycle, and submissions of each (bench_serve.py's
#: POPULAR_DISTINCT and POPULAR_COPIES).
DISTINCT = 4
COPIES = 8

#: The writer's problems of each class in one cycle.
WRITES = {"fresh": 2, "mutation": 2}

#: Seconds the client waits between the last cycle and the read phase.
#: An answer can come back while the anytime mapper's abandoned exact
#: lane still runs (``exact_abandoned``); hits sent then shared the
#: interpreter with it and took 8-20 ms instead of 2 ms, for up to half
#: a second, so the hit latency followed that race.
SETTLE_S = 1.0

#: Length of the read phase.  Its hits are timed one after another, so
#: a short phase samples the host's speed at one moment; at 3 s, one run
#: in five read 30% slow.
READ_S = 5.0

#: Operations per fresh fuzz assay.
FUZZ_OPERATIONS = 6

#: Fuzz seed before the first fresh problem.
FRESH_BASE = 1000

_NAME = re.compile(r"\b(in\d+|m\d+)\b")
_DURATION = re.compile(r"duration=(\d+)")
_SETTLED = ("done", "failed", "rejected", "invalid", "error")


class Problem:
    """An assay the server has answered, with the design it got."""

    def __init__(self, text: str, design: dict) -> None:
        self.text = text
        self.devices = design["devices"]
        self.routes = design["routes"]

    def served_again(self, design: dict, renamed: Dict[str, str]) -> bool:
        """Whether ``design``, its names mapped back through ``renamed``,
        is this problem's design up to an automorphism of the assay.

        Operations of identical structure may trade places (any
        isomorphism is a valid rename), so the check finds the renaming
        that the placements and routes imply and then requires it to map
        the assay onto itself, edges and attributes included.
        """
        sigma: Dict[str, str] = {}

        def fits(name: str, image: str) -> bool:
            return sigma.get(renamed.get(name, name), image) == image

        def bind(name: str, image: str) -> None:
            sigma[renamed.get(name, name)] = image

        placed = {_device_key(d): d["operation"] for d in self.devices}
        if len(placed) != len(self.devices) or len(design["devices"]) != len(
            self.devices
        ):
            return False
        for device in design["devices"]:
            image = placed.get(_device_key(device))
            if image is None or not fits(device["operation"], image):
                return False
            bind(device["operation"], image)
        if len(design["routes"]) != len(self.routes):
            return False
        # Routes are matched by time and cells; among routes that share
        # both (no cells between adjacent ends), by their endpoints.
        routed: Dict[tuple, List[dict]] = {}
        for route in self.routes:
            routed.setdefault(_route_key(route), []).append(route)
        for route in design["routes"]:
            candidates = routed.get(_route_key(route), [])
            image = next(
                (r for r in candidates
                 if fits(route["source"], r["source"])
                 and fits(route["target"], r["target"])),
                None,
            )
            if image is None:
                return False
            candidates.remove(image)
            bind(route["source"], image["source"])
            bind(route["target"], image["target"])
        if len(set(sigma.values())) != len(sigma):
            return False
        return _automorphism(_operations(self.text), sigma)


def _device_key(device: dict) -> tuple:
    return tuple(v for k, v in sorted(device.items()) if k != "operation")


def _route_key(route: dict) -> tuple:
    return route["time"], tuple(map(tuple, route["cells"]))


def _operations(text: str) -> Dict[str, Tuple[str, str, List[str], List[str]]]:
    """Per operation: kind, attributes, parents and their ratio parts."""
    ops = {}
    for line in text.splitlines():
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        kind, name = words[0], words[1]
        parents = [w for w in words[2:] if "=" not in w]
        attrs = sorted(w for w in words[2:] if "=" in w)
        ratio = next((a[6:] for a in attrs if a.startswith("ratio=")), "")
        parts = ratio.split(":")
        if len(parts) != len(parents):
            parts = [""] * len(parents)
        ops[name] = (kind, " ".join(attrs), parents, parts)
    return ops


def _automorphism(ops, sigma: Dict[str, str]) -> bool:
    """Whether renaming by ``sigma`` (identity elsewhere) maps every
    operation onto one with the same attributes and renamed parents."""
    image = lambda name: sigma.get(name, name)  # noqa: E731
    if set(map(image, ops)) != set(ops):
        return False
    for name, (kind, attrs, parents, parts) in ops.items():
        target = ops[image(name)]
        if target[:2] != (kind, attrs) or Counter(
            zip(map(image, parents), parts)
        ) != Counter(zip(target[2], target[3])):
            return False
    return True


class Traffic:
    """The seeded stream of submissions."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._fuzz_seed = FRESH_BASE
        self._sent = set()
        self._written: List[str] = []

    def cycle(self) -> List[str]:
        """The classes of one cycle's new problems, in seeded order; the
        first problem of all is fresh, as a mutation needs an original."""
        kinds = [k for k, n in WRITES.items() for _ in range(n)]
        self.rng.shuffle(kinds)
        if not self._written:
            kinds.remove("fresh")
            kinds.insert(0, "fresh")
        return kinds

    def write(self, kind: str) -> Tuple[str, str, Optional[dict]]:
        """(class, assay text, context) of a new problem of ``kind``."""
        context = None
        if kind == "fresh":
            text = self._fresh()
            context = {"fresh_index": self._fuzz_seed - FRESH_BASE}
        else:
            text = self._mutate(self.rng.choice(self._written))
        self._written.append(text)
        return kind, text, context

    def reads(self, problems: List[Problem]):
        """The cycle's resubmissions: ``COPIES - 1`` relabeled copies of
        each answered problem, round robin."""
        for _ in range(COPIES - 1):
            for original in problems:
                text, renamed = self._relabel(original.text)
                yield "resubmit", text, {"original": original,
                                         "renamed": renamed}

    def read(self, problems: List[Problem]) -> Tuple[str, str, dict]:
        """A read-phase resubmission: a relabeled copy of one of
        ``problems``, chosen by the seed."""
        original = self.rng.choice(problems)
        text, renamed = self._relabel(original.text)
        return "read", text, {"original": original, "renamed": renamed}

    def _fresh(self) -> str:
        from repro.assay.textio import graph_to_text
        from repro.assays.fuzzer import fuzz_graph

        while True:
            self._fuzz_seed += 1
            text = graph_to_text(fuzz_graph(self._fuzz_seed, FUZZ_OPERATIONS))
            if text not in self._sent:
                self._sent.add(text)
                return text

    def _mutate(self, text: str) -> str:
        lines = text.splitlines()
        mixes = [i for i, line in enumerate(lines) if line.startswith("mix ")]
        while True:
            i = self.rng.choice(mixes)
            step = self.rng.randint(1, 3)
            edited = list(lines)
            edited[i] = _DURATION.sub(
                lambda m: f"duration={int(m.group(1)) + step}", lines[i]
            )
            mutated = "\n".join(edited) + "\n"
            if mutated not in self._sent:
                self._sent.add(mutated)
                return mutated
            lines = edited

    def _relabel(self, text: str) -> Tuple[str, Dict[str, str]]:
        names = sorted(set(_NAME.findall(text)))
        fresh = self.rng.sample(range(10 * len(names) + 10), len(names))
        mapping = {old: f"op{n}" for old, n in zip(names, fresh)}
        renamed = {new: old for old, new in mapping.items()}
        return _NAME.sub(lambda m: mapping[m.group(1)], text), renamed


@dataclass
class Outcome:
    """One settled submission as the client saw it."""

    kind: str
    latency: float
    event: Optional[str]
    source: Optional[str]
    result: Optional[dict]
    error: object
    context: Optional[dict]


async def _request(reader, writer, message: dict) -> List[dict]:
    writer.write((json.dumps(message) + "\n").encode())
    await writer.drain()
    events = []
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        event = json.loads(line)
        events.append(event)
        if message["op"] != "submit" or event.get("event") in _SETTLED:
            return events


def check(outcome: Outcome) -> Optional[str]:
    """Why a settled submission fails the benchmark's checks, or None."""
    if outcome.event != "done":
        return f"{outcome.kind}: {outcome.event} {outcome.error}"
    audit = outcome.result.get("audit") or {}
    if not audit.get("ok") or audit.get("violations"):
        return f"{outcome.kind}: served design failed its audit"
    if outcome.kind in ("resubmit", "read"):
        if outcome.source != "cache":
            return f"{outcome.kind}: served by {outcome.source}, not the cache"
        original = outcome.context["original"]
        if not original.served_again(
            outcome.result["design"], outcome.context["renamed"]
        ):
            return f"{outcome.kind}: relabeled hit maps to another design"
    return None


@dataclass
class Session:
    """What one closed loop saw."""

    outcomes: List[Outcome]
    failures: List[str]
    #: The server's final ``status`` reply.
    status: dict
    #: Wall time of the cycles.
    wall: float


async def closed_loop(
    host: str, port: int, traffic: Traffic, seconds: float, cycles: int,
    between: Optional[Callable[[], None]] = None,
) -> Session:
    """Drive the server for about ``seconds``: at least ``cycles`` whole
    cycles, more while another, as long as the last, still leaves time
    for the pause and the read phase, then those.  Whole cycles keep the mix of
    solves and hits, and so the throughput, independent of where the
    time runs out.

    ``between``, if given, is called after every cycle, :data:`SETTLE_S`
    after its last answer, while no request is in flight.  Its time
    counts against ``seconds`` but not against the cycles' wall time."""
    outcomes: List[Outcome] = []
    failures: List[str] = []

    async def submit(stream, kind, text, context) -> Optional[Problem]:
        sent = time.perf_counter()
        events = await _request(*stream, {"op": "submit", "assay": text})
        latency = time.perf_counter() - sent
        last = events[-1]
        job = last.get("job") or {}
        outcome = Outcome(
            kind, latency, last.get("event"), job.get("source"),
            last.get("result"), job.get("error") or last.get("error"),
            context,
        )
        outcomes.append(outcome)
        problem = check(outcome)
        if problem is not None:
            failures.append(problem)
            return None
        return Problem(text, outcome.result["design"])

    writer, reader = [
        await asyncio.open_connection(host, port) for _ in range(2)
    ]
    answered: List[Problem] = []
    paused = 0.0
    start = time.perf_counter()
    try:
        reads_from = start + seconds - SETTLE_S - READ_S
        ran = 0
        while ran < cycles or time.perf_counter() + cycle < reads_from:
            ran += 1
            cycle_start = time.perf_counter()
            solved = []
            for kind in traffic.cycle():
                problem = await submit(writer, *traffic.write(kind))
                if problem is not None:
                    solved.append(problem)
            for read in traffic.reads(solved):
                await submit(reader, *read)
            answered += solved
            if between is not None:
                pause_start = time.perf_counter()
                await asyncio.sleep(SETTLE_S)
                between()
                paused += time.perf_counter() - pause_start
            cycle = time.perf_counter() - cycle_start
        wall = time.perf_counter() - start - paused
        await asyncio.sleep(SETTLE_S)
        reads_end = time.perf_counter() + READ_S
        while answered and time.perf_counter() < reads_end:
            await submit(reader, *traffic.read(answered))
        status = (await _request(*writer, {"op": "status"}))[-1]
    finally:
        for _, stream_writer in (writer, reader):
            stream_writer.close()
            await stream_writer.wait_closed()
    return Session(outcomes, failures, status.get("status", {}), wall)
