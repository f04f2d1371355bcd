"""``run_chain`` runs every generated interceptor chain exactly as the
recursive runner it replaced.

The reference is the provided-port runner the kernel used before
``run_chain`` existed: a list snapshot plus a ``proceed`` that recurses
on a position.  Chains mix pass-through, rewriting, short-circuiting,
raising, catching, retrying and editing the holder list mid-call; each
chain is called twice so that an edit made by the first call shows in
the second.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.kernel import Invocation, run_chain


def reference_run_chain(interceptors, invocation, terminal):
    chain = list(interceptors)

    def proceed(inv: Invocation, _position: int = 0):
        if _position < len(chain):
            return chain[_position](
                inv, lambda inner: proceed(inner, _position + 1)
            )
        return terminal(inv)

    return proceed(invocation)


PLAIN_KINDS = ["pass", "rewrite_args", "rewrite_meta", "short", "raise",
               "fallback", "retry"]
EDITS = ["remove_self", "append", "insert_front", "clear", "reverse"]

specs = st.lists(
    st.one_of(
        st.sampled_from(PLAIN_KINDS).map(lambda kind: (kind,)),
        st.sampled_from(EDITS).map(lambda edit: ("edit", edit)),
    ),
    max_size=8,
)


def build(specs, trace):
    """A fresh holder list of interceptors that log enter/exit to ``trace``."""
    holder = []
    fresh = itertools.count(100)

    def make(ident, spec):
        kind = spec[0]

        def fn(inv, proceed):
            trace.append(("enter", ident))
            try:
                if kind == "rewrite_args":
                    return proceed(Invocation(inv.operation,
                                              inv.args + (ident,),
                                              meta=inv.meta))
                if kind == "rewrite_meta":
                    key = f"m{ident}"
                    inv.meta[key] = inv.meta.get(key, 0) + 1
                if kind == "short":
                    return ("short", ident)
                if kind == "raise":
                    raise ValueError(f"boom {ident}")
                if kind == "fallback":
                    try:
                        return proceed(inv)
                    except ValueError as exc:
                        return ("fallback", ident, str(exc))
                if kind == "retry":
                    try:
                        first = proceed(inv)
                    except ValueError as exc:
                        first = ("failed", str(exc))
                    return first, proceed(inv)
                if kind == "edit":
                    edit(spec[1], fn)
                return proceed(inv)
            finally:
                trace.append(("exit", ident))

        return fn

    def edit(how, fn):
        if how == "remove_self":
            if fn in holder:
                holder.remove(fn)
        elif how == "append":
            holder.append(make(next(fresh), ("pass",)))
        elif how == "insert_front":
            holder.insert(0, make(next(fresh), ("rewrite_meta",)))
        elif how == "clear":
            holder.clear()
        else:
            holder.reverse()

    holder.extend(make(ident, spec) for ident, spec in enumerate(specs))
    return holder


def two_calls(runner, specs):
    trace = []
    holder = build(specs, trace)

    def terminal(inv):
        trace.append(("terminal", inv.args))
        return "done", inv.args, sorted(inv.meta.items())

    outcomes = []
    for call in range(2):
        try:
            outcomes.append(
                ("returned", runner(holder, Invocation("op", (call,)),
                                    terminal)))
        except ValueError as exc:
            outcomes.append(("raised", type(exc).__name__, str(exc)))
    return outcomes, trace


@given(specs)
@settings(max_examples=300, deadline=None)
@example([])
@example([("short",), ("pass",)])
@example([("retry",), ("rewrite_meta",), ("edit", "append")])
def test_run_chain_matches_the_recursive_runner(specs):
    assert two_calls(run_chain, specs) == two_calls(reference_run_chain,
                                                    specs)
