//! Fixture for `ssd lint --loc`. This doc text names `#[cfg(test)]`
//! before any test code, so a counter that stops at the first
//! `#[cfg(test)]` in the file counts nothing here.

/// Returns the text `#[cfg(test)]`, a string and not an attribute.
pub fn marker() -> &'static str {
    "#[cfg(test)]"
}

pub fn dispatch(cmd: &str) -> u8 {
    match cmd {
        "a" => 1,
        // Only this arm is test code; everything after it ships.
        #[cfg(test)]
        "boom" => panic!("test only"),
        _ => 2,
    }
}

pub fn after_the_arm() -> u8 {
    3
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts() {
        assert_eq!(super::after_the_arm(), 3);
    }
}
