"""Seeded load for the two service workloads.

* ``flood`` is an **open loop**: Poisson arrivals at a fixed rate from
  one sender (the calling thread) on one keep-alive connection, and one
  watcher thread on a second connection that polls the oldest
  unfinished job.  Latency runs from each job's *due* time, so a stall
  is charged to every job it delays, and the sender's own lag is
  reported.  The watcher must keep up: the service forgets terminal
  records past ``keep_records`` (1024), after which ``GET /jobs/{id}``
  answers 404.
* ``campaign`` is a **closed loop**: two clients (the calling thread
  and one more), each with its own connection, submit a job, poll it
  every 5 ms, and only then submit the next.

The generators below depend on the seed alone; the service sees only
the job bodies they produce.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque

from repro.errors import QueueFullError, ServiceError

TERMINAL = ("done", "failed", "cancelled")

#: The campaign mix: per block of 20 jobs, exact quotas of each entry kind.
MIX_BLOCK = {"search": 12, "multi-seed": 3, "warm": 2, "resubmit": 3}
CAMPAIGN_NETWORKS = (
    "lenet5",
    "alexnet",
    "vgg16",
    "mobilenet_v1",
    "squeezenet_v1.1",
    "resnet18",
    "spherenet20",
    "tiny_yolo_v2",
)
CAMPAIGN_MODES = ("cpu", "gpgpu")
CAMPAIGN_EPISODES = (500, 750, 1000, 1250, 1500, 2000)
#: Seeds per multi-seed job.
MULTI_SEEDS = 4
#: Closed-loop clients; job ``i`` belongs to client ``i % CLIENTS``.
CLIENTS = 2


def arrival_schedule(seed: int, rate_per_s: float, seconds: float) -> list[float]:
    """Poisson arrival offsets (seconds from the start) within ``seconds``."""
    rng = random.Random(f"flood-arrivals-{seed}")
    offsets, now = [], 0.0
    while True:
        now += rng.expovariate(rate_per_s)
        if now >= seconds:
            return offsets
        offsets.append(now)


def campaign_seeds(seed: int) -> tuple[int, int]:
    """The two job seeds (LUT profile + search) of a campaign run."""
    return 2 * seed, 2 * seed + 1


def _balanced_bodies(rng: random.Random, seeds: tuple[int, int]) -> list[tuple]:
    """All 192 (network, mode, seed, episodes) combos in an order whose
    every prefix spreads evenly over the 16 (network, mode) pairs and
    the 6 budgets, relabelled by seeded permutations.

    Position ``j`` takes pair ``j % 16`` and budget ``(j % 16 + j // 16)
    % 6``, so each pair walks through every budget; the seed bit flips
    between the pair's two walks.  A run of any length therefore does
    nearly the same work whatever its seed.
    """
    pairs = [(n, m) for n in CAMPAIGN_NETWORKS for m in CAMPAIGN_MODES]
    rng.shuffle(pairs)
    budgets = list(CAMPAIGN_EPISODES)
    rng.shuffle(budgets)
    order = list(seeds)
    rng.shuffle(order)
    combos = []
    for j in range(len(pairs) * len(budgets) * len(order)):
        p, r = j % len(pairs), j // len(pairs)
        network, mode = pairs[p]
        combos.append(
            (network, mode, order[(r // len(budgets) + p) % 2],
             budgets[(p + r) % len(budgets)])
        )
    return combos


def campaign_mix(seed: int, jobs: int) -> list[dict]:
    """The campaign's job stream with exact per-block quotas.

    Each entry is ``{"kind": k, "body": {...}}`` or, for resubmits,
    ``{"kind": "resubmit", "target": j}`` where ``j`` is an earlier
    computed entry of the same client (None: a warm-up key).  Computed
    entries never repeat a job key, so the only store hits are the
    resubmits.
    """
    rng = random.Random(f"campaign-mix-{seed}")
    pools = {
        kind: iter(_balanced_bodies(rng, campaign_seeds(seed)))
        for kind in ("search", "multi-seed", "warm")
    }
    block = [kind for kind, n in MIX_BLOCK.items() for _ in range(n)]
    entries: list[dict] = []
    while len(entries) < jobs:
        kinds = block[:]
        rng.shuffle(kinds)
        for kind in kinds[: jobs - len(entries)]:
            i = len(entries)
            if kind == "resubmit":
                earlier = [
                    j
                    for j in range(i % CLIENTS, i, CLIENTS)
                    if entries[j]["kind"] != "resubmit"
                ]
                entries.append(
                    {"kind": kind, "target": rng.choice(earlier) if earlier else None}
                )
                continue
            network, mode, s, episodes = next(pools[kind])
            body = {
                "network": network,
                "mode": mode,
                "seed": s,
                "episodes": episodes,
                "kind": "multi-seed" if kind == "multi-seed" else "search",
            }
            if kind == "multi-seed":
                body["seeds"] = MULTI_SEEDS
            if kind == "warm":
                body["warm_start"] = "stored"
            entries.append({"kind": kind, "body": body})
    return entries


def flood(sender, watcher, schedule: list[float], body_of) -> list[dict]:
    """Drive the open loop; returns one outcome dict per arrival.

    ``sender``/``watcher`` are two ``ServiceClient`` objects (one
    connection each); ``body_of(i)`` is job ``i``'s body.  Outcomes hold
    ``due``/``sent`` (epoch seconds), ``rtt_s``, and either ``record``
    (the terminal job record), ``refused`` or ``lost``.
    """
    outcomes = [{"due": 0.0} for _ in schedule]
    pending: deque[int] = deque()
    wake = threading.Condition()
    finished_sending = threading.Event()

    def watch() -> None:
        while True:
            with wake:
                while not pending and not finished_sending.is_set():
                    wake.wait(0.05)
                if not pending:
                    return
                i = pending[0]
            status, record = watcher.request("GET", f"/jobs/{outcomes[i]['id']}")
            if status == 404:
                outcomes[i]["lost"] = True
            elif record["state"] in TERMINAL:
                outcomes[i]["record"] = record
            else:
                time.sleep(0.005)
                continue
            with wake:
                pending.popleft()

    thread = threading.Thread(target=watch, name="flood-watcher")
    thread.start()
    start = time.time() + 0.05
    try:
        for i, offset in enumerate(schedule):
            due = start + offset
            wait = due - time.time()
            if wait > 0:
                time.sleep(wait)
            sent = time.time()
            outcome = outcomes[i]
            outcome.update(due=due, sent=sent)
            try:
                record = sender.submit(body_of(i))[0]
            except QueueFullError:
                outcome["refused"] = True
                continue
            finally:
                outcome["rtt_s"] = time.time() - sent
            outcome["id"] = record["id"]
            with wake:
                pending.append(i)
                wake.notify()
    finally:
        finished_sending.set()
        thread.join()
    return outcomes


def closed_loop(clients, count: int, body_of, deadline: float) -> dict[int, dict]:
    """Run the closed loop over entries ``0..count-1`` until all ran or
    ``deadline`` (epoch seconds) passed, with at least one job per
    client; returns ``{index: outcome}``
    for the entries sent, each with ``sent`` and ``record`` or
    ``refused``."""
    outcomes: dict[int, dict] = {}
    errors: list[BaseException] = []

    def run(c: int) -> None:
        client = clients[c]
        try:
            for n, i in enumerate(range(c, count, len(clients))):
                if n and time.time() >= deadline:
                    return
                body = body_of(i)
                sent = time.time()
                try:
                    record = client.submit(body)[0]
                except QueueFullError:
                    outcomes[i] = {"sent": sent, "refused": True}
                    continue
                while record["state"] not in TERMINAL:
                    time.sleep(0.005)
                    record = client.job(record["id"])
                outcomes[i] = {"sent": sent, "record": record}
        except (ServiceError, OSError) as error:
            errors.append(error)

    others = [
        threading.Thread(target=run, args=(c,), name=f"client-{c}")
        for c in range(1, len(clients))
    ]
    for thread in others:
        thread.start()
    run(0)
    for thread in others:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes
