use cad3_types::{FeatureRecord, RoadType, TripRecord};
use serde::Serialize;
use std::collections::HashSet;

/// Dataset statistics in the format of the paper's Table III: cars, trips,
/// mean speed and trajectory counts, per region and per road type.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Region / road-type rows.
    pub rows: Vec<StatsRow>,
}

/// One row of the Table III layout.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatsRow {
    /// Row label ("Shenzhen", "Motorway", ...).
    pub region: String,
    /// Distinct vehicles.
    pub cars: usize,
    /// Distinct trips.
    pub trips: usize,
    /// Mean instantaneous speed, km/h.
    pub mean_speed_kmh: f64,
    /// Number of trajectory records.
    pub trajectories: usize,
}

impl DatasetStats {
    /// Computes the city-wide row plus one row per road type present.
    pub fn compute(features: &[FeatureRecord], trips: &[TripRecord]) -> Self {
        let mut rows = vec![Self::row("Shenzhen", features, trips, None)];
        for rt in RoadType::ALL {
            if features.iter().any(|f| f.road_type == rt) {
                rows.push(Self::row(&rt.to_string(), features, trips, Some(rt)));
            }
        }
        DatasetStats { rows }
    }

    fn row(
        name: &str,
        features: &[FeatureRecord],
        trips: &[TripRecord],
        rt: Option<RoadType>,
    ) -> StatsRow {
        let select: Vec<&FeatureRecord> =
            features.iter().filter(|f| rt.is_none_or(|t| f.road_type == t)).collect();
        let cars: HashSet<_> = select.iter().map(|f| f.vehicle).collect();
        let trip_ids: HashSet<_> = select.iter().map(|f| (f.vehicle, f.trip)).collect();
        let mean = if select.is_empty() {
            0.0
        } else {
            select.iter().map(|f| f.speed_kmh).sum::<f64>() / select.len() as f64
        };
        // City-wide trip count uses the trip table; per-type rows count
        // trips that touch the type.
        let trips_count = if rt.is_none() { trips.len() } else { trip_ids.len() };
        StatsRow {
            region: name.to_owned(),
            cars: cars.len(),
            trips: trips_count,
            mean_speed_kmh: mean,
            trajectories: select.len(),
        }
    }

    /// The row for a region name, if present.
    pub fn row_named(&self, name: &str) -> Option<&StatsRow> {
        self.rows.iter().find(|r| r.region == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetConfig, SyntheticDataset};

    #[test]
    fn table_iii_shape_holds() {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(11));
        let stats = DatasetStats::compute(&ds.features, &ds.trips);
        let city = stats.row_named("Shenzhen").unwrap();
        let mw = stats.row_named("motorway").unwrap();
        let link = stats.row_named("motorway_link").unwrap();

        // Motorway flows much faster than the link and than the city mean —
        // the Table III / Fig. 2 ordering.
        assert!(mw.mean_speed_kmh > link.mean_speed_kmh);
        assert!(mw.mean_speed_kmh > city.mean_speed_kmh);
        // City row aggregates everything.
        assert_eq!(city.trajectories, ds.features.len(), "city row counts all trajectories");
        assert!(city.cars <= ds.config.n_vehicles as usize);
        assert_eq!(city.trips, ds.trips.len());
        // Sub-rows are subsets.
        assert!(mw.trajectories < city.trajectories);
        assert!(mw.cars <= city.cars);
    }

    #[test]
    fn row_named_missing_is_none() {
        let stats = DatasetStats { rows: vec![] };
        assert!(stats.row_named("nowhere").is_none());
    }
}
