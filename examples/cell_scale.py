#!/usr/bin/env python3
"""Cell-scale study: 1000 streamed devices against one base station.

The paper's §8 future work asks what happens at the base station when
*many* phones run MakeIdle.  This example answers it at a scale the
pre-kernel simulator could not touch: a 1000-device cell whose workloads
are **streamed** (generated lazily, chunk by chunk), so memory stays
bounded by the device count while the event kernel replays every device's
RRC machine against one shared clock.

The sweep is a plan declaration — population × device scheme ×
base-station dormancy policy — executed through the same
plan → runner → runset lifecycle as the single-UE experiments, with
results cached by population fingerprint.

Run it with::

    python examples/cell_scale.py

(Takes on the order of a minute; scale DEVICES down for a quick look.)
"""

from __future__ import annotations

import time

from repro.analysis import format_table
from repro.api import SerialRunner, cell, dormancy, plan

DEVICES = 1000
APPS = ("im", "email", "news", "microblog")
DURATION_S = 600.0


def main() -> None:
    population = cell(
        devices=DEVICES,
        apps=APPS,
        duration=DURATION_S,
        name=f"cell{DEVICES}",
        chunk_s=150.0,        # lazy chunked generation: O(devices) memory
    )
    sweep = (plan()
             .cells(population)
             .carriers("att_hspa")
             .policies("status_quo", "makeidle")
             # Budgets scale with the population: 120 switches/min (the
             # single-cell default) saturates instantly with 1000 phones.
             .dormancy("accept_all",
                       dormancy("rate_limited", 60.0),
                       dormancy("load_aware", 2000),
                       "reject_all")
             .labelled("cell-scale dormancy study"))
    print(sweep.describe())

    start = time.perf_counter()
    runs = SerialRunner().run(sweep)
    elapsed = time.perf_counter() - start

    rows = []
    for record in runs.to_records():
        if record["scheme"] != "makeidle":
            continue
        rows.append(
            [
                record["dormancy"],
                f"{record['energy_j']:.0f}",
                f"{record.get('saved_percent', 0.0):.1f}",
                f"{100.0 * record['denial_rate']:.1f}",
                str(record["peak_switches_per_minute"]),
                str(record["peak_active_devices"]),
                str(record["rrc_messages"]),
            ]
        )
    print(format_table(
        [
            "network dormancy policy",
            "device energy (J)",
            "saved % vs SQ",
            "requests denied %",
            "peak switches/min",
            "peak active",
            "RRC messages",
        ],
        rows,
        title=f"{DEVICES} MakeIdle devices, {DURATION_S / 60:.0f} min of "
              "streamed traffic each",
    ))

    packets = sum(
        len(r.result.devices) and r.result.total_packets
        for r in runs if not r.from_cache
    )
    print(f"\nsimulated {len(runs)} cells ({packets} device-packets) "
          f"in {elapsed:.1f} s — workloads streamed, memory bounded by "
          f"the {DEVICES}-device population, not the packet count")
    print(
        "\n'accept_all' reproduces the paper's assumption at cell scale;\n"
        "'load_aware' caps the signalling storm (peak switches/min) while\n"
        "giving up part of the energy savings, and 'reject_all' shows the\n"
        "pre-Release-7 world where devices cannot release the channel."
    )


if __name__ == "__main__":
    main()
