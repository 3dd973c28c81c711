"""User call stacks and binary mappings.

An *entrypoint* in the paper is "the program counter of a function call
instruction on the process's call stack", stored **relative to the binary
load base** so the same rule works under ASLR.  We model:

- :class:`BinaryImage` — a mapped program or library with a randomized
  load base;
- :class:`Frame` — one stack frame with an absolute return PC;
- :class:`UserStack` — the (untrusted!) user stack, including hooks to
  forge frames or truncate unwind information, so the firewall's
  defensive unwinding (paper §4.4: ``copy_from_user``, frame caps) is
  exercised by tests.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro import errors

#: Alignment for randomized load bases.
_BASE_ALIGN = 0x1000


class BinaryImage:
    """A mapped executable or shared object.

    Attributes:
        path: filesystem path of the binary (rule ``-p`` operand).
        base: randomized load address.
        size: size of the mapping; PCs outside ``[base, base+size)`` do
            not belong to this image.
        interpreter: language name for interpreted programs ("php",
            "python", "bash") or ``None`` for native binaries.
    """

    def __init__(self, path, base=None, size=0x1000000, rng=None, interpreter=None):
        if base is None:
            rng = rng or random.Random(hash(path) & 0xFFFFFFFF)
            base = rng.randrange(0x400000, 0x7F0000000, _BASE_ALIGN)
        self.path = path
        self.base = base
        self.size = size
        self.interpreter = interpreter

    def contains(self, pc):
        """Whether the absolute ``pc`` lies inside this mapping."""
        return self.base <= pc < self.base + self.size

    def rel(self, pc):
        """Translate an absolute PC to a base-relative entrypoint offset."""
        if not self.contains(pc):
            raise errors.EFAULT("pc {:#x} outside {}".format(pc, self.path))
        return pc - self.base

    def abs(self, offset):
        """Translate a base-relative offset to an absolute PC."""
        if not 0 <= offset < self.size:
            raise errors.EFAULT("offset {:#x} outside {}".format(offset, self.path))
        return self.base + offset

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<BinaryImage {} base={:#x}>".format(self.path, self.base)


class Frame:
    """One call-stack frame.

    Attributes:
        pc: absolute program counter of the call site.
        image: the :class:`BinaryImage` containing ``pc`` (``None`` for a
            forged frame pointing nowhere).
        function: symbolic function name, for logs and interpreter
            backtraces.
    """

    __slots__ = ("pc", "image", "function")

    def __init__(self, pc, image=None, function=""):
        self.pc = pc
        self.image = image
        self.function = function

    def entrypoint(self):
        """Return ``(binary_path, relative_pc)`` or ``None`` if unmapped."""
        image = self.image
        if image is None:
            return None
        rel = self.pc - image.base
        if 0 <= rel < image.size:
            return (image.path, rel)
        return None

    def __repr__(self):  # pragma: no cover - debugging aid
        where = self.image.path if self.image else "?"
        return "<Frame {}+{:#x} {}>".format(where, self.pc - (self.image.base if self.image else 0), self.function)


class UserStack:
    """The process's call stack, as seen (untrusted) by the kernel.

    ``push``/``pop`` are used by simulated programs as they call and
    return; the firewall unwinds via :meth:`unwind`, which enforces a
    frame cap and validates frame pointers, aborting cleanly on forged
    stacks (which, per the paper, only removes the forger's own
    protection).  The entrypoint context module validates the whole
    capped unwind this way but resolves only its head: frames are
    mapped to images innermost first, stopping at the first that maps.
    """

    #: Paper §4.4: "sets an upper limit on the number of stack frames".
    MAX_UNWIND_FRAMES = 64

    def __init__(self):
        self._frames = []  # type: List[Frame]
        #: When set, unwinding raises EFAULT at this depth, simulating an
        #: invalid frame pointer mid-stack.
        self.corrupt_below = None  # type: Optional[int]
        #: When set, unwinding loops forever (infinite stack DoS); the
        #: frame cap must stop it.
        self.infinite = False

    def push(self, pc, image=None, function=""):
        """Call: push a frame whose return PC is ``pc``; return it."""
        frame = Frame(pc, image=image, function=function)
        self._frames.append(frame)
        return frame

    def pop(self):
        """Return: pop and return the innermost frame."""
        if not self._frames:
            raise errors.EFAULT("pop on empty user stack")
        return self._frames.pop()

    @property
    def depth(self):
        """Number of frames on the stack."""
        return len(self._frames)

    def top(self):
        """The innermost frame, or ``None`` on an empty stack."""
        return self._frames[-1] if self._frames else None

    def frames(self):
        """All frames, innermost last (no validation — program's view)."""
        return list(self._frames)

    def unwind(self, max_frames=None):
        """Defensively unwind, innermost first.

        Returns a list of at most ``max_frames`` (default
        :attr:`MAX_UNWIND_FRAMES`) :class:`Frame` objects.  Honours the
        frame cap (DoS guard) and raises :class:`repro.errors.EFAULT`
        when a corrupted frame lies inside the capped walk
        (``corrupt_below < min(depth, cap)``), which callers must treat
        as "no context available" rather than a fatal error.
        """
        cap = max_frames or self.MAX_UNWIND_FRAMES
        if self.infinite:
            return self._unwind_looping(cap)
        frames = self._frames
        limit = len(frames) if len(frames) < cap else cap
        corrupt_below = self.corrupt_below
        if corrupt_below is not None and corrupt_below < limit:
            raise errors.EFAULT("corrupted frame at depth {}".format(corrupt_below))
        # The innermost ``limit`` frames, reversed, in one slice.
        return frames[:-limit - 1:-1]

    def _unwind_looping(self, cap):
        """The unwind of a looping stack: recycles frames up to ``cap``."""
        out = []
        source = list(reversed(self._frames))
        i = 0
        while True:
            if len(out) >= cap:
                return out
            if i >= len(source):
                # Recycle frames to simulate a looping unwind.
                i = 0
                if not source:
                    return out
                continue
            if self.corrupt_below is not None and i >= self.corrupt_below:
                raise errors.EFAULT("corrupted frame at depth {}".format(i))
            out.append(source[i])
            i += 1
