"""Span nesting and self-time arithmetic."""

from __future__ import annotations

import asyncio
import threading

import pytest

from perfbench.spans import SpanRecorder, covered, load_spans, self_times


def test_covered_merges_overlaps_and_clips() -> None:
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    # children sticking out of the parent only count inside it
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_direct_children() -> None:
    spans = [
        (1, None, "root", 0.0, 10.0, False),
        (2, 1, "child", 1.0, 4.0, False),
        (3, 1, "child", 3.0, 6.0, False),  # overlaps child 2: union is 1..6
        (4, 2, "grandchild", 1.5, 2.5, False),  # not a direct child of root
        (5, None, "other", 20.0, 21.0, False),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


def test_recorder_nests_per_thread_and_per_task(tmp_path) -> None:
    recorder = SpanRecorder()
    inner = recorder.wrap(lambda: None, "inner")
    outer = recorder.wrap(lambda: inner() or 1, "outer")

    async def wait_then_inner() -> int:
        await asyncio.sleep(0.001)
        return outer()

    traced = recorder.wrap_async(wait_then_inner, "task")

    async def two_tasks() -> None:
        await asyncio.gather(traced(), traced())

    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    asyncio.run(two_tasks())

    path = tmp_path / "spans.json"
    recorder.dump(path)
    spans = load_spans(path)
    by_id = {span[0]: span for span in spans}
    assert sorted(span[2] for span in spans).count("outer") == 4
    for span in spans:
        if span[2] == "inner":
            assert by_id[span[1]][2] == "outer"
            assert span[5]  # returned None
        elif span[2] == "outer":
            parent = span[1]
            assert parent is None or by_id[parent][2] == "task"
        else:
            assert span[1] is None
    # each task's outer span belongs to that task, not the other one
    task_children = [by_id[s[1]][0] for s in spans if s[2] == "outer" and s[1]]
    assert len(set(task_children)) == 2
