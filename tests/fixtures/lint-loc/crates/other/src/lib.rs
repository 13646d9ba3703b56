pub fn one() -> u8 { 1 }
