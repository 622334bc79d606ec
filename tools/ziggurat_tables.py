#!/usr/bin/env python3
"""Regenerate ``src/repro/arch/ziggurat.py``: numpy's normal ziggurat tables.

``Generator.standard_normal()`` first tries a one-word ziggurat step on
one raw 64-bit output ``r``: strip ``idx = r & 0xff``, sign bit 8 and
``rabs = (r >> 9) & (2**52 - 1)``.  It accepts when ``rabs < ki[idx]``
and returns ``±rabs * wi[idx]``.  numpy does not export ``ki``/``wi``,
so this script reads them back by probing numpy itself.  A ``PCG64``
whose ``.state`` is ``(r - 1) * MULT⁻¹ mod 2**128`` with ``inc = 1`` steps
to state ``r``, and its first output is ``r`` itself.  So every output
can be handed to ``standard_normal()`` on demand.

- ``ki[idx]`` is the least ``rabs`` that is rejected: a binary search
  over ``rabs``, where acceptance shows as a generator that advanced by
  exactly one output.
- ``wi[idx]`` is the deviate drawn for ``rabs = 1`` (``1.0 * wi[idx]``).
  In strip 1, ``ki[1] == 0`` rejects every ``rabs``, and the wedge test
  then returns that same product after one more output, which the
  probe checks.

Run it from the repository root after a numpy upgrade:
``python3 tools/ziggurat_tables.py``.  ``tests/test_arch_noise.py``
probes numpy the same way and fails while the module is stale.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
MULT = (2549297995355413924 << 64) | 4865540595714422341
MASK128 = (1 << 128) - 1
STRIPS = 256
RABS_BITS = 52
TARGET = Path(__file__).resolve().parents[1] / "src/repro/arch/ziggurat.py"


class Probe:
    """numpy's ``standard_normal()`` on a chosen first raw output."""

    def __init__(self) -> None:
        self.bit_generator = np.random.PCG64(0)
        self.standard_normal = np.random.Generator(
            self.bit_generator
        ).standard_normal
        self.mult_inv = pow(MULT, -1, 1 << 128)

    def draw(self, r: int) -> tuple[float, int]:
        """The deviate drawn from first output ``r``, and how many raw
        outputs it took (1 on the one-word fast path)."""
        state = ((r - 1) * self.mult_inv) & MASK128
        self.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": 1},
            "has_uint32": 0, "uinteger": 0,
        }
        z = self.standard_normal()
        after = self.bit_generator.state["state"]["state"]
        steps, current = 1, r
        while current != after:
            current = (current * MULT + 1) & MASK128
            steps += 1
        return z, steps

    def accepted(self, idx: int, rabs: int) -> bool:
        return self.draw(idx | (rabs << 9))[1] == 1


def probe_tables() -> tuple[list[int], list[float]]:
    """numpy's ``(ki, wi)`` normal ziggurat tables, read by probing."""
    probe = Probe()
    ki, wi = [], []
    for idx in range(STRIPS):
        lo, hi = 0, 1 << RABS_BITS
        while lo < hi:
            mid = (lo + hi) // 2
            if probe.accepted(idx, mid):
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
        z, steps = probe.draw(idx | (1 << 9))
        if steps != (1 if lo > 1 else 2):
            raise RuntimeError(
                f"strip {idx}: rabs = 1 took {steps} outputs, so the "
                "deviate is not 1.0 * wi"
            )
        wi.append(z)
    return ki, wi


def render(ki: list[int], wi: list[float]) -> str:
    def rows(cells: list[str], per_line: int) -> str:
        return "\n".join(
            "    " + " ".join(c + "," for c in cells[i:i + per_line])
            for i in range(0, len(cells), per_line)
        )

    return (
        '"""numpy\'s normal ziggurat tables (``ki_double``, ``wi_double``).\n'
        "\n"
        "Generated by ``tools/ziggurat_tables.py``, which probes numpy's own\n"
        "``standard_normal()``; do not edit.  ``ki[idx]`` bounds the 52-bit\n"
        "magnitude accepted in strip ``idx`` on the one-word fast path and\n"
        "``wi[idx]`` scales it to the deviate (see :mod:`repro.arch.noise`).\n"
        '"""\n'
        "\n"
        "KI = (\n"
        + rows([f"0x{k:013X}" for k in ki], 4)
        + "\n)\n\nWI = (\n"
        + rows([repr(w) for w in wi], 3)
        + "\n)\n"
    )


def main() -> None:
    TARGET.write_text(render(*probe_tables()), encoding="utf-8")
    print(f"wrote {TARGET} from numpy {np.__version__}")


if __name__ == "__main__":
    main()
