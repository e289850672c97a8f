"""Unit tests for the taxi, private car, people and ground-truth simulators."""

from __future__ import annotations

import pytest

from repro.datasets.people import COMMUTE_STYLES, PersonSimulator
from repro.datasets.seattle import GroundTruthDrive, GroundTruthDriveGenerator
from repro.datasets.vehicles import PRIVATE_CAR_PURPOSE_MIX, TaxiFleetSimulator


class TestTaxiFleet:
    def test_one_trajectory_per_taxi_per_day(self, world):
        simulator = TaxiFleetSimulator(world, taxi_count=2, days=2, fares_per_day=2, seed=5)
        dataset = simulator.generate()
        assert len(dataset.trajectories) == 4
        assert len(dataset.object_ids) == 2

    def test_trajectories_are_time_ordered_and_nonempty(self, taxi_dataset):
        for trajectory in taxi_dataset.trajectories:
            times = [point.t for point in trajectory]
            assert times == sorted(times)
            assert len(trajectory) > 50

    def test_truth_segments_align_with_points(self, taxi_dataset):
        for trajectory in taxi_dataset.trajectories:
            truth = taxi_dataset.truth_segments[trajectory.trajectory_id]
            assert len(truth) == len(trajectory)

    def test_taxi_points_stay_inside_world(self, world, taxi_dataset):
        bounds = world.bounds.expanded(100.0)
        for trajectory in taxi_dataset.trajectories:
            for point in trajectory.points[::25]:
                assert bounds.contains_point(point.position)

    def test_generation_is_deterministic(self, world):
        a = TaxiFleetSimulator(world, taxi_count=1, days=1, fares_per_day=2, seed=9).generate()
        b = TaxiFleetSimulator(world, taxi_count=1, days=1, fares_per_day=2, seed=9).generate()
        assert a.gps_record_count == b.gps_record_count
        assert a.trajectories[0][0].as_tuple() == b.trajectories[0][0].as_tuple()

    def test_different_seeds_differ(self, world):
        a = TaxiFleetSimulator(world, taxi_count=1, days=1, fares_per_day=2, seed=9).generate()
        b = TaxiFleetSimulator(world, taxi_count=1, days=1, fares_per_day=2, seed=10).generate()
        assert a.trajectories[0][5].as_tuple() != b.trajectories[0][5].as_tuple()


class TestPrivateCars:
    def test_one_trajectory_per_car(self, car_dataset):
        assert len(car_dataset.trajectories) >= 6
        assert all(t.trajectory_id.endswith("day0") for t in car_dataset.trajectories)

    def test_stop_purposes_recorded(self, car_dataset):
        assert car_dataset.stop_purposes
        for trajectory_id, purposes in car_dataset.stop_purposes.items():
            assert all(purpose in PRIVATE_CAR_PURPOSE_MIX for purpose in purposes)

    def test_purpose_mix_sums_to_one(self):
        assert sum(PRIVATE_CAR_PURPOSE_MIX.values()) == pytest.approx(1.0)

    def test_sampling_period_is_coarse(self, car_dataset):
        trajectory = car_dataset.trajectories[0]
        assert trajectory.average_sampling_period() == pytest.approx(40.0, abs=2.0)


class TestPeople:
    def test_profiles_cycle_commute_styles(self, world):
        simulator = PersonSimulator(world, user_count=5, days_per_user=1)
        profiles = simulator.build_profiles()
        assert [profile.commute_style for profile in profiles[:4]] == list(COMMUTE_STYLES)
        assert profiles[4].commute_style == COMMUTE_STYLES[0]

    def test_daily_trajectories_per_user(self, people_dataset):
        for user, trajectories in people_dataset.trajectories_by_user.items():
            assert 1 <= len(trajectories) <= 1
            for trajectory in trajectories:
                assert trajectory.object_id == user

    def test_truth_segments_align(self, people_dataset):
        # Variable sampling thins the stream, so truth lists are at least as long.
        for trajectory in people_dataset.all_trajectories:
            truth = people_dataset.truth_segments[trajectory.trajectory_id]
            assert len(truth) >= len(trajectory)

    def test_people_have_more_noise_and_gaps_than_vehicles(self, people_dataset, taxi_dataset):
        person = people_dataset.all_trajectories[0]
        taxi = taxi_dataset.trajectories[0]
        assert person.average_sampling_period() > taxi.average_sampling_period()

    def test_metro_user_trajectory_contains_metro_truth(self, people_dataset):
        metro_users = [
            user
            for user, profile in people_dataset.profiles.items()
            if profile.commute_style == "metro"
        ]
        assert metro_users
        found_metro = False
        for user in metro_users:
            for trajectory in people_dataset.trajectories_by_user[user]:
                truth = people_dataset.truth_segments[trajectory.trajectory_id]
                if any(segment and segment.startswith("metro") for segment in truth):
                    found_metro = True
        assert found_metro


class TestGroundTruthDrive:
    def test_lengths_align(self, ground_truth_drive):
        assert len(ground_truth_drive.trajectory) == len(ground_truth_drive.truth_segment_ids)

    def test_mostly_on_road(self, ground_truth_drive):
        truth = ground_truth_drive.truth_segment_ids
        assert sum(1 for segment in truth if segment is not None) / len(truth) > 0.95

    def test_mismatched_lengths_rejected(self, ground_truth_drive):
        with pytest.raises(ValueError):
            GroundTruthDrive(
                trajectory=ground_truth_drive.trajectory,
                truth_segment_ids=ground_truth_drive.truth_segment_ids[:-1],
            )

    def test_noise_parameter_changes_positions(self, world):
        generator = GroundTruthDriveGenerator(world, waypoint_count=3, seed=41)
        clean = generator.generate(noise_sigma=0.0)
        noisy = generator.generate(noise_sigma=20.0)
        assert clean.trajectory[10].as_tuple() != noisy.trajectory[10].as_tuple()

    def test_deterministic_for_same_seed(self, world):
        a = GroundTruthDriveGenerator(world, waypoint_count=3, seed=41).generate()
        b = GroundTruthDriveGenerator(world, waypoint_count=3, seed=41).generate()
        assert a.trajectory[5].as_tuple() == b.trajectory[5].as_tuple()
        assert a.truth_segment_ids == b.truth_segment_ids
