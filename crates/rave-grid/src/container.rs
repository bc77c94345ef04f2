//! The service container (Apache Axis + Tomcat stand-in).
//!
//! §4.3: Grid services are factories that create instances; the container
//! hosts the factories, creates instances on request, and hands back
//! socket access points. The Web-service front door costs real time
//! (Table 5's "service bootstrap" includes "the time spent to contact the
//! Axis Web Service \[and\] request the creation of a new render service
//! instance").

use crate::soap::{SoapCodec, SoapEnvelope};
use crate::wsdl::{TechnicalModel, WsdlDocument};
use rave_sim::SimTime;
use std::collections::BTreeMap;

/// A created service instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceInstance {
    pub id: u64,
    pub factory: String,
    pub tmodel: TechnicalModel,
    /// Instance name (shown in the Fig 4 registry GUI, e.g.
    /// "Skull-internal").
    pub name: String,
    pub access_point: String,
    /// The argument the factory was invoked with (a data URL for data
    /// services, a data-service access point for render services —
    /// "a render service needs a data service to bootstrap from", §5.3).
    pub bootstrap_arg: String,
}

/// Container error space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    UnknownFactory(String),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::UnknownFactory(n) => write!(f, "no factory deployed as {n}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// A container on one host, with deployed factories and live instances.
#[derive(Debug, Clone)]
pub struct ServiceContainer {
    pub host: String,
    factories: BTreeMap<String, TechnicalModel>,
    instances: Vec<ServiceInstance>,
    next_id: u64,
    next_port: u16,
    codec: SoapCodec,
    /// Fixed cost of servicing a factory call (servlet dispatch, JVM
    /// class loading, instance wiring). Dominates small-model bootstraps.
    pub instance_creation_time: SimTime,
}

impl ServiceContainer {
    pub fn new(host: &str) -> Self {
        Self {
            host: host.into(),
            factories: BTreeMap::new(),
            instances: Vec::new(),
            next_id: 1,
            next_port: 4411,
            codec: SoapCodec::default(),
            // Calibrated with the data-transfer model so Table 5's galleon
            // bootstrap lands near 10.5 s.
            instance_creation_time: SimTime::from_secs(9.9),
        }
    }

    /// Deploy a factory under a name.
    pub fn deploy_factory(&mut self, name: &str, tmodel: TechnicalModel) {
        self.factories.insert(name.to_string(), tmodel);
    }

    pub fn factories(&self) -> impl Iterator<Item = (&str, TechnicalModel)> {
        self.factories.iter().map(|(n, t)| (n.as_str(), *t))
    }

    /// Handle a `createInstance` call: returns the new instance and the
    /// CPU time the call cost (SOAP demarshal + instance creation +
    /// response marshal).
    pub fn create_instance(
        &mut self,
        factory: &str,
        instance_name: &str,
        bootstrap_arg: &str,
    ) -> Result<(ServiceInstance, SimTime), ContainerError> {
        let tmodel = *self
            .factories
            .get(factory)
            .ok_or_else(|| ContainerError::UnknownFactory(factory.to_string()))?;
        let id = self.next_id;
        self.next_id += 1;
        let port = self.next_port;
        self.next_port += 1;
        let instance = ServiceInstance {
            id,
            factory: factory.to_string(),
            tmodel,
            name: instance_name.to_string(),
            access_point: format!("{}:{}", self.host, port),
            bootstrap_arg: bootstrap_arg.to_string(),
        };
        self.instances.push(instance.clone());

        // Charge the real SOAP round trip for the factory call.
        let request = SoapEnvelope::new(factory, "createInstance")
            .arg("name", crate::soap::SoapValue::Str(instance_name.into()))
            .arg("arg", crate::soap::SoapValue::Str(bootstrap_arg.into()));
        let response = SoapEnvelope::new(factory, "createInstanceResponse")
            .arg("accessPoint", crate::soap::SoapValue::Str(instance.access_point.clone()));
        let cost = self.codec.marshal_time(&request)
            + self.codec.marshal_time(&response)
            + self.instance_creation_time;
        Ok((instance, cost))
    }

    /// Tear an instance down. Returns whether it existed.
    pub fn destroy_instance(&mut self, id: u64) -> bool {
        let before = self.instances.len();
        self.instances.retain(|i| i.id != id);
        self.instances.len() != before
    }

    pub fn instances(&self) -> &[ServiceInstance] {
        &self.instances
    }

    pub fn instance(&self, id: u64) -> Option<&ServiceInstance> {
        self.instances.iter().find(|i| i.id == id)
    }

    /// The WSDL document a live instance advertises.
    pub fn wsdl_for(&self, id: u64) -> Option<WsdlDocument> {
        self.instance(id).map(|i| WsdlDocument::conforming(&i.name, i.tmodel, &i.access_point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container() -> ServiceContainer {
        let mut c = ServiceContainer::new("tower");
        c.deploy_factory("render-factory", TechnicalModel::RenderService);
        c.deploy_factory("data-factory", TechnicalModel::DataService);
        c
    }

    #[test]
    fn create_instance_allocates_distinct_access_points() {
        let mut c = container();
        let (i1, _) = c.create_instance("render-factory", "r1", "adrenochrome:4411").unwrap();
        let (i2, _) = c.create_instance("render-factory", "r2", "adrenochrome:4411").unwrap();
        assert_ne!(i1.id, i2.id);
        assert_ne!(i1.access_point, i2.access_point);
        assert!(i1.access_point.starts_with("tower:"));
        assert_eq!(c.instances().len(), 2);
    }

    #[test]
    fn unknown_factory_rejected() {
        let mut c = container();
        assert!(matches!(
            c.create_instance("nope", "x", ""),
            Err(ContainerError::UnknownFactory(_))
        ));
    }

    #[test]
    fn creation_cost_is_seconds_scale() {
        // Instance creation dominates Table 5's fixed bootstrap component.
        let mut c = container();
        let (_, cost) = c.create_instance("render-factory", "r", "d").unwrap();
        assert!((8.0..12.0).contains(&cost.as_secs()), "cost {cost}");
    }

    #[test]
    fn destroy_removes_instance() {
        let mut c = container();
        let (i, _) = c.create_instance("data-factory", "Skull", "file:skull.obj").unwrap();
        assert!(c.destroy_instance(i.id));
        assert!(!c.destroy_instance(i.id));
        assert!(c.instance(i.id).is_none());
    }

    #[test]
    fn wsdl_advertises_instance_endpoint() {
        let mut c = container();
        let (i, _) = c.create_instance("render-factory", "r1", "d").unwrap();
        let wsdl = c.wsdl_for(i.id).unwrap();
        assert!(wsdl.conforms());
        assert_eq!(wsdl.access_point, i.access_point);
        assert_eq!(wsdl.tmodel, TechnicalModel::RenderService);
    }

    #[test]
    fn render_service_bootstraps_from_data_service() {
        // §5.3: "a render service needs a data service to bootstrap from".
        let mut c = container();
        let (data, _) = c.create_instance("data-factory", "Skull", "file:skull.obj").unwrap();
        let (render, _) =
            c.create_instance("render-factory", "Skull-internal", &data.access_point).unwrap();
        assert_eq!(render.bootstrap_arg, data.access_point);
    }
}
