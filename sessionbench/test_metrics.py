"""Tests of the session benchmark's metric arithmetic on fixed inputs.

    python3 -m unittest discover -s sessionbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def session(segments, rounds_failed=0, rounds_expected=None, digest="a",
            resume_s=0.0, replay_s=1.0):
    arrivals = sum(len(s["arrival_ms"]) for s in segments)
    return {
        "segments": segments,
        "rounds_failed": rounds_failed,
        "rounds_expected": rounds_expected or arrivals,
        "sv_digest": digest,
        "weights_digest": "w",
        "tip_hash": "t",
        "setup_s": 0.1,
        "resume_s": resume_s,
        "replay_s": replay_s,
    }


def segment(start_ms, arrival_ms):
    return {"start_ms": start_ms, "end_ms": arrival_ms[-1] + 1.0,
            "arrival_ms": arrival_ms, "rounds": list(range(len(arrival_ms)))}


class RoundLatencyTest(unittest.TestCase):
    def test_first_round_counts_from_run_start(self):
        seg = segment(100.0, [130.0, 150.0, 200.0])
        self.assertEqual(metrics.round_latencies(seg), [30.0, 20.0, 50.0])

    def test_segments_restart_at_each_run_call(self):
        # A killed session: rounds 0-1, then the resumed Run() from 500 ms.
        s = session([segment(0.0, [10.0, 30.0]), segment(500.0, [540.0])])
        self.assertEqual(metrics.session_latencies(s), [10.0, 20.0, 40.0])


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(metrics.percentile(values, 50.0), 2.5)
        self.assertEqual(metrics.percentile(values, 0.0), 1.0)
        self.assertEqual(metrics.percentile(values, 100.0), 4.0)
        self.assertAlmostEqual(metrics.percentile(values, 90.0), 3.7)

    def test_tail_leaves_at_least_ten_rounds_beyond(self):
        self.assertEqual(metrics.tail_percentile(120), 90.0)   # 12 beyond
        self.assertEqual(metrics.tail_percentile(199), 90.0)   # p95: 9.95
        self.assertEqual(metrics.tail_percentile(200), 95.0)   # 10 beyond
        self.assertEqual(metrics.tail_percentile(72), 75.0)    # p90: 7.2
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertIsNone(metrics.tail_percentile(19))


class GrowthTest(unittest.TestCase):
    def test_last_ten_over_first_ten(self):
        latencies = [10.0] * 10 + [50.0] * 5 + [30.0] * 10
        self.assertEqual(metrics.round_growth(latencies), 3.0)

    def test_short_sessions_overlap_the_windows(self):
        latencies = [1.0, 1.0] + [2.0] * 8 + [4.0, 4.0]
        # 12 rounds: first 10 mean 1.8, last 10 mean 2.4
        self.assertAlmostEqual(metrics.round_growth(latencies), 2.4 / 1.8)

    def test_needs_ten_rounds(self):
        with self.assertRaises(ValueError):
            metrics.round_growth([1.0] * 9)


class FailureTest(unittest.TestCase):
    def test_failed_frac(self):
        self.assertEqual(metrics.failed_frac(120, 0), 0.0)
        self.assertEqual(metrics.failed_frac(120, 30), 0.25)
        self.assertEqual(metrics.failed_frac(0, 0), 1.0)

    def test_digest_outlier_fails_all_its_rounds(self):
        arrivals = [float(10 * i) for i in range(1, 13)]
        sessions = [session([segment(0.0, arrivals)], digest="a"),
                    session([segment(0.0, arrivals)], digest="b", rounds_failed=1),
                    session([segment(0.0, arrivals)], digest="a", rounds_failed=2)]
        self.assertEqual(metrics.inconsistent_sessions(sessions), [1])
        self.assertEqual(metrics.session_failures(sessions), [0, 12, 2])


class EndToEndTest(unittest.TestCase):
    def test_metrics_from_raw(self):
        arrivals = [float(10 * i) for i in range(1, 13)]  # 12 rounds of 10 ms
        raw = {
            "setup_s": [0.3, 0.1, 0.2],
            "peak_rss_mb": 64.0,
            "sessions": [session([segment(0.0, arrivals)], replay_s=2.0),
                         session([segment(0.0, arrivals)], replay_s=4.0)],
        }
        values, details = metrics.end_to_end(raw)
        self.assertEqual(values["setup_s"], 0.2)
        # 24 rounds over 2 x 121 ms of Run().
        self.assertAlmostEqual(values["rounds_per_s"], 24 / 0.242)
        self.assertEqual(values["round_ms_p50"], 10.0)
        self.assertEqual(values["round_ms_tail"], 10.0)
        self.assertEqual(values["resume_s"], 3.0)
        self.assertEqual(values["peak_rss_mb"], 64.0)
        self.assertEqual(details["round_ms_tail_percentile"], 50.0)
        self.assertEqual(details["round_samples"], 24)
        self.assertEqual(details["round_growth"], 1.0)
        self.assertEqual(details["resume_s_source"], "chain_replay")

    def test_durable_resume_uses_attach_time(self):
        arrivals = [float(10 * i) for i in range(1, 11)]
        raw = {"setup_s": [0.1], "peak_rss_mb": 1.0,
               "sessions": [session([segment(0.0, arrivals)], resume_s=0.5)] * 2}
        values, details = metrics.end_to_end(raw)
        self.assertEqual(values["resume_s"], 0.5)
        self.assertEqual(details["resume_s_source"], "attach_resume")


if __name__ == "__main__":
    unittest.main()
