"""The sliced unwinders equal the per-frame reference loop.

``UserStack.unwind`` and ``InterpreterStack.unwind`` compute their
non-looping result as one reversed slice plus one bound check.  The
reference functions below are the per-frame loops they replaced; over
random depth, frame cap, corruption depth and looping stacks both must
return the same frames in the same order, or both raise ``EFAULT``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.proc.interp import InterpreterStack
from repro.proc.stack import UserStack


def reference_user_unwind(stack, max_frames=None):
    """The per-frame ``UserStack.unwind`` loop, kept as the oracle."""
    cap = max_frames or stack.MAX_UNWIND_FRAMES
    out = []
    source = list(reversed(stack._frames))
    i = 0
    while True:
        if stack.infinite and len(out) >= cap:
            return out
        if i >= len(source):
            if stack.infinite:
                i = 0
                if not source:
                    return out
                continue
            return out
        if len(out) >= cap:
            return out
        if stack.corrupt_below is not None and i >= stack.corrupt_below:
            raise errors.EFAULT("corrupted frame at depth {}".format(i))
        out.append(source[i])
        i += 1


def reference_script_unwind(stack, max_frames=None):
    """The per-frame ``InterpreterStack.unwind`` loop, kept as the oracle."""
    cap = max_frames or stack.MAX_UNWIND_FRAMES
    out = []
    source = list(reversed(stack._frames))
    i = 0
    while True:
        if i >= len(source):
            if stack.infinite and source:
                i = 0
            else:
                return out
        if len(out) >= cap:
            return out
        if stack.corrupt_below is not None and i >= stack.corrupt_below:
            raise errors.EFAULT("corrupted script frame at depth {}".format(i))
        out.append(source[i])
        i += 1


def outcome(unwind, max_frames):
    """Frame identities in order, or ``"EFAULT"``."""
    try:
        return [id(frame) for frame in unwind(max_frames)]
    except errors.EFAULT:
        return "EFAULT"


stack_shapes = dict(
    depth=st.integers(min_value=0, max_value=80),
    max_frames=st.one_of(st.none(), st.integers(min_value=1, max_value=70)),
    corrupt_below=st.one_of(st.none(), st.integers(min_value=0, max_value=85)),
    infinite=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(**stack_shapes)
@example(depth=5, max_frames=5, corrupt_below=None, infinite=False)
@example(depth=5, max_frames=4, corrupt_below=4, infinite=False)
@example(depth=5, max_frames=6, corrupt_below=5, infinite=False)
@example(depth=0, max_frames=None, corrupt_below=0, infinite=True)
def test_user_unwind_equals_reference(depth, max_frames, corrupt_below, infinite):
    stack = UserStack()
    for i in range(depth):
        stack.push(0x1000 + i)
    stack.corrupt_below = corrupt_below
    stack.infinite = infinite
    expected = outcome(lambda cap: reference_user_unwind(stack, cap), max_frames)
    assert outcome(stack.unwind, max_frames) == expected


@settings(max_examples=300, deadline=None)
@given(**stack_shapes)
def test_script_unwind_equals_reference(depth, max_frames, corrupt_below, infinite):
    stack = InterpreterStack("php")
    for i in range(depth):
        stack.push("/app/{}.php".format(i), i + 1)
    stack.corrupt_below = corrupt_below
    stack.infinite = infinite
    expected = outcome(lambda cap: reference_script_unwind(stack, cap), max_frames)
    assert outcome(stack.unwind, max_frames) == expected

