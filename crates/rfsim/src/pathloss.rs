//! Log-distance path loss and dBm conversions for 2.4 GHz Wi-Fi links.

/// Speed of light in m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Default Wi-Fi channel-1 carrier frequency in Hz (2.412 GHz).
pub const WIFI_24_GHZ: f64 = 2.412e9;

/// Wavelength in metres for a carrier frequency in Hz.
///
/// # Panics
///
/// Panics if `freq_hz <= 0`.
pub fn wavelength(freq_hz: f64) -> f64 {
    assert!(freq_hz > 0.0, "frequency must be positive");
    SPEED_OF_LIGHT / freq_hz
}

/// Log-distance path-loss model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistanceModel {
    /// Carrier frequency in Hz.
    pub freq_hz: f64,
    /// Path-loss exponent (2 free space, 2.5-4 indoor).
    pub exponent: f64,
    /// Reference distance in metres (typically 1 m).
    pub d0: f64,
}

impl LogDistanceModel {
    /// Indoor 2.4 GHz defaults with the given exponent.
    pub fn indoor(exponent: f64) -> Self {
        LogDistanceModel {
            freq_hz: WIFI_24_GHZ,
            exponent,
            d0: 1.0,
        }
    }

    /// Path loss in dB at distance `d` metres: the free-space loss at
    /// the reference distance `d0`, plus `10 n log10(d / d0)`.
    ///
    /// Distances below `d0` are clamped to `d0` (near-field is out of
    /// scope for this model).
    fn loss_db(&self, d: f64) -> f64 {
        let d = d.max(self.d0);
        let lambda = wavelength(self.freq_hz);
        let free_space_d0 = 20.0 * (4.0 * std::f64::consts::PI * self.d0 / lambda).log10();
        free_space_d0 + 10.0 * self.exponent * (d / self.d0).log10()
    }

    /// Received power in dBm given transmit power `tx_dbm`.
    pub fn rss_dbm(&self, tx_dbm: f64, d: f64) -> f64 {
        tx_dbm - self.loss_db(d)
    }
}

impl Default for LogDistanceModel {
    /// Indoor office defaults: 2.4 GHz, exponent 3.0, `d0` = 1 m.
    fn default() -> Self {
        LogDistanceModel::indoor(3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_at_24ghz() {
        let l = wavelength(WIFI_24_GHZ);
        assert!((l - 0.1243).abs() < 1e-3, "lambda = {l}");
    }

    #[test]
    fn free_space_loss_at_1m_24ghz() {
        // Known figure: ~40.05 dB at 1 m, 2.4 GHz — the model's anchor
        // at its 1 m reference distance.
        let loss = LogDistanceModel::default().loss_db(1.0);
        assert!((loss - 40.1).abs() < 0.3, "loss = {loss}");
    }

    #[test]
    fn loss_increases_with_distance() {
        let m = LogDistanceModel::default();
        assert!(m.loss_db(10.0) > m.loss_db(5.0));
        // Exponent 3 => 30 dB per decade.
        let per_decade = m.loss_db(10.0) - m.loss_db(1.0);
        assert!((per_decade - 30.0).abs() < 1e-9);
    }

    #[test]
    fn near_field_clamped() {
        let m = LogDistanceModel::default();
        assert_eq!(m.loss_db(0.1), m.loss_db(1.0));
    }

    #[test]
    fn rss_is_tx_minus_loss() {
        let m = LogDistanceModel::default();
        let rss = m.rss_dbm(15.0, 5.0);
        assert!((rss - (15.0 - m.loss_db(5.0))).abs() < 1e-12);
        // Sanity: a 5 m indoor link at 15 dBm TX lands in a plausible
        // -40..-80 dBm window.
        assert!(rss < -40.0 && rss > -80.0, "rss = {rss}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_panics() {
        let _ = wavelength(0.0);
    }
}
